// Multiapp: the paper's Fig 2 runtime scenario through the public API —
// two DNNs, an AR/VR app and a thermal disturbance on an NPU-equipped
// flagship SoC, managed by the runtime manager's knobs and monitors.
//
// Expected timeline (the paper's narrative):
//
//	t=0   DNN1 runs 100% on the NPU
//	t=5   DNN2 (stricter latency) claims the NPU; DNN1 moves to the GPU,
//	      compressed to 75%
//	t=15  AR/VR occupies the GPU; DNN1 moves to the big CPU at 25%
//	t≈22  the device heats up; the manager sheds DNN1 to a low-power
//	      allocation
//	t=25  DNN2's accuracy requirement drops; both DNNs co-locate on the
//	      NPU, dynamically scaled
package main

import (
	"fmt"
	"log"
)

import emlrtm "github.com/emlrtm/emlrtm"

func main() {
	scenario := emlrtm.Fig2Scenario()
	engine, mgr, report, err := emlrtm.RunScenario(scenario, emlrtm.FlagshipSoC(), 0.25, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %.0fs; %d plans, %d migrations, max temp %.1f°C (throttle %.0f°C)\n",
		report.DurationS, mgr.Plans(), report.Migrations, report.MaxTempC, engine.ThrottleC())

	fmt.Println("\ntimeline:")
	for _, ev := range report.Events {
		switch ev.Kind.String() {
		case "app-start", "migrated", "thermal-alarm":
			fmt.Printf("  t=%6.2fs %-13s %-6s %s\n", ev.TimeS, ev.Kind, ev.App, ev.Detail())
		}
	}

	fmt.Println("\nfinal state:")
	for _, a := range report.Apps {
		if a.Kind != emlrtm.KindDNN {
			continue
		}
		fmt.Printf("  %s: %s at %s, %d/%d frames on time (avg %.1f ms)\n",
			a.Name, a.Profile.Level(a.Level).Name, a.Placement.Cluster,
			a.Completed-a.Missed, a.Released, a.AvgLatency*1000)
	}

	// The Fig 5 interface: what the manager actually turned.
	if reg := mgr.Registry(); reg != nil {
		fmt.Printf("\nknobs:    %v\n", reg.KnobNames(""))
		fmt.Printf("monitors: %v\n", reg.MonitorNames(""))
	}
}
