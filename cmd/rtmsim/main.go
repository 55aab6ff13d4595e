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
	"os"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "fig2", "scenario: fig2 (flagship SoC) or fig5 (Odroid XU3)")
	tick := flag.Float64("tick", 0.25, "controller epoch in seconds")
	quiet := flag.Bool("quiet", false, "suppress the decision stream")
	flag.Parse()

	if err := run(os.Stdout, *scenario, *tick, *quiet); err != nil {
		log.Fatal(err)
	}
}

// run simulates the named scenario and writes its summary and timeline
// to w. Unless quiet, the manager's decisions stream to stderr as they
// happen.
func run(w io.Writer, scenario string, tick float64, quiet bool) error {
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

	logf := func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	if quiet {
		logf = nil
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
	for _, a := range rep.Apps {
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
	final, err := e.Cluster("npu")
	if err == nil {
		fmt.Fprintf(bw, "npu residents at end: %v (free memory %.1f MiB)\n",
			final.Residents, float64(final.MemFree)/(1<<20))
	}
	return bw.Flush()
}
