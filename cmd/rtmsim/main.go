// Command rtmsim runs a scripted multi-application scenario under the
// runtime manager and streams its decisions: plans, migrations, DVFS
// changes, thermal events. The default scenario is the paper's Fig 2
// timeline on the flagship SoC.
//
// Usage:
//
//	rtmsim [-scenario fig2|fig5] [-tick 0.25] [-quiet]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "fig2", "scenario: fig2 (flagship SoC) or fig5 (Odroid XU3)")
	tick := flag.Float64("tick", 0.25, "controller epoch in seconds, finite and above 0")
	quiet := flag.Bool("quiet", false, "suppress the decision stream")
	flag.Parse()

	var decisions io.Writer = os.Stderr
	if *quiet {
		decisions = nil
	}
	if err := run(os.Stdout, decisions, *scenario, *tick); err != nil {
		log.Fatal(err)
	}
}

// run simulates the named scenario and writes its summary and timeline
// to w. The manager's decisions stream to decisions, one line each as
// they happen, unless it is nil.
func run(w, decisions io.Writer, scenario string, tick float64) error {
	// A scripted scenario's events are applied on controller ticks, so a
	// run without them would silently skip every one.
	if !(tick > 0) || math.IsInf(tick, 1) {
		return fmt.Errorf("-tick %g: the controller epoch must be a finite number of seconds above 0", tick)
	}
	var (
		s    workload.Scenario
		plat = hw.FlagshipSoC()
	)
	switch scenario {
	case "fig2":
		s = workload.Fig2Scenario()
	case "fig5":
		s = workload.Fig5Scenario(perf.PaperReferenceProfile())
		plat = hw.OdroidXU3()
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}

	var logf func(string, ...any)
	if decisions != nil {
		logf = func(f string, a ...any) { fmt.Fprintf(decisions, f+"\n", a...) }
	}
	e, mgr, rep, err := workload.Run(s, plat, tick, logf)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "scenario %s on %s: %.0fs simulated\n", s.Name, plat.Name, rep.DurationS)
	fmt.Fprintf(bw, "plans=%d migrations=%d levelSwaps=%d oppSwitches=%d\n",
		mgr.Plans(), rep.Migrations, rep.LevelSwaps, rep.OPPSwitches)
	fmt.Fprintf(bw, "energy=%.0fmJ avgPower=%.0fmW maxTemp=%.1fC overThrottle=%.2fs\n",
		rep.TotalEnergyMJ, rep.AvgPowerMW, rep.MaxTempC, rep.OverThrottleS)
	var npu []string
	for _, a := range rep.Apps {
		if a.Running && a.Placement.Cluster == "npu" {
			npu = append(npu, a.Name)
		}
		if a.Kind != sim.KindDNN {
			continue
		}
		fmt.Fprintf(bw, "  %-6s final=%s/%d level=%d frames=%d completed=%d missed=%d dropped=%d avgLat=%.1fms\n",
			a.Name, a.Placement.Cluster, a.Placement.Cores, a.Level,
			a.Released, a.Completed, a.Missed, a.Dropped, a.AvgLatency*1000)
	}
	fmt.Fprintln(bw, "timeline:")
	for _, ev := range rep.Events {
		switch ev.Kind {
		case sim.EvAppStart, sim.EvAppStop, sim.EvMigrated, sim.EvThermalAlarm:
			fmt.Fprintf(bw, "  t=%6.2fs %-13s %-6s %s\n", ev.TimeS, ev.Kind, ev.App, ev.Detail())
		}
	}
	if final, err := e.Cluster("npu"); err == nil {
		slices.Sort(npu)
		fmt.Fprintf(bw, "npu residents at end: %v (free memory %.1f MiB)\n",
			npu, float64(final.MemFree)/(1<<20))
	}
	return bw.Flush()
}
