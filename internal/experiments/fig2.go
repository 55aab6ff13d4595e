package experiments

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/trace"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Fig2Result is the outcome of the scripted Fig 2 runtime scenario.
type Fig2Result struct {
	Report    sim.Report
	Plans     int
	Timeline  *trace.Table
	Summary   *trace.Table
	AlarmAtS  float64 // -1 if no alarm fired
	FinalDNN1 sim.AppInfo
	FinalDNN2 sim.AppInfo
}

// Fig2 runs the paper's Fig 2 timeline under the runtime manager and
// renders the phase table: which cluster and configuration each DNN holds
// in each phase, plus the thermal response.
func Fig2(o Options) (Fig2Result, error) {
	s := workload.Fig2Scenario()
	e, mgr, rep, err := workload.Run(s, hw.FlagshipSoC(), 0.25, o.Logf)
	if err != nil {
		return Fig2Result{}, err
	}

	res := Fig2Result{Report: rep, Plans: mgr.Plans(), AlarmAtS: -1}
	res.FinalDNN1, _ = e.App("dnn1")
	res.FinalDNN2, _ = e.App("dnn2")

	res.Timeline = trace.NewTable("Fig 2 — runtime scenario timeline (flagship SoC)",
		"t (s)", "Event", "App", "Detail")
	for _, ev := range rep.Events {
		switch ev.Kind {
		case sim.EvAppStart, sim.EvAppStop, sim.EvMigrated, sim.EvThermalAlarm:
			res.Timeline.AddRow(fmt.Sprintf("%.2f", ev.TimeS), ev.Kind.String(), ev.App, ev.Detail())
			if ev.Kind == sim.EvThermalAlarm && res.AlarmAtS < 0 {
				res.AlarmAtS = ev.TimeS
			}
		}
	}

	res.Summary = trace.NewTable("Fig 2 — per-app outcome",
		"App", "Final placement", "Final config", "Frames", "Completed", "Missed", "Dropped", "Avg latency (ms)")
	for _, a := range rep.Apps {
		cfg := "-"
		if a.Kind == sim.KindDNN {
			cfg = a.Profile.Level(a.Level).Name
		}
		res.Summary.AddRow(a.Name,
			fmt.Sprintf("%s/%d", a.Placement.Cluster, a.Placement.Cores),
			cfg, a.Released, a.Completed, a.Missed, a.Dropped, a.AvgLatency*1000)
	}
	return res, nil
}

// CoLocated reports whether both DNNs ended on the NPU (phase (d)).
func (r Fig2Result) CoLocated() bool {
	return r.FinalDNN1.Placement.Cluster == "npu" && r.FinalDNN2.Placement.Cluster == "npu"
}
