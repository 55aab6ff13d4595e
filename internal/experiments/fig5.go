package experiments

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/trace"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Fig5Result is the closed-loop disturbance experiment: the RTM holds a
// DNN's budget through a background burst on the same cluster, using the
// knob/monitor interface of Fig 5; a governor-only baseline on the same
// scenario shows what the application-blind prior art achieves.
type Fig5Result struct {
	Managed        sim.AppInfo
	Baseline       sim.AppInfo
	ManagedReport  sim.Report
	BaselineReport sim.Report
	Knobs          []string
	Monitors       []string
	Table          *trace.Table
}

// Fig5 runs the disturbance scenario twice — once under the manager, once
// under an ondemand governor with static mapping — on the Odroid XU3 with
// the given (measured or published) profile.
func Fig5(prof perf.ModelProfile, o Options) (Fig5Result, error) {
	s := workload.Fig5Scenario(prof)

	e, mgr, _, err := workload.Run(s, hw.OdroidXU3(), 0.25, o.Logf)
	if err != nil {
		return Fig5Result{}, err
	}
	managed, _ := e.App("dnn")

	be, err := governorRun(s, hw.OdroidXU3(), 0.25)
	if err != nil {
		return Fig5Result{}, err
	}
	baseline, _ := be.App("dnn")

	res := Fig5Result{
		Managed:        managed,
		Baseline:       baseline,
		ManagedReport:  e.Report(),
		BaselineReport: be.Report(),
	}
	res.Knobs, res.Monitors = mgr.KnobsAndMonitors()
	res.Table = trace.NewTable("Fig 5 — closed-loop control through a background burst (Odroid XU3)",
		"Controller", "Frames", "Completed", "Missed", "Dropped", "Bad (%)", "Avg latency (ms)", "Energy (mJ)")
	add := func(name string, a sim.AppInfo, rep sim.Report) {
		bad := 0.0
		if a.Released > 0 {
			bad = 100 * float64(a.Missed+a.Dropped) / float64(a.Released)
		}
		res.Table.AddRow(name, a.Released, a.Completed, a.Missed, a.Dropped, bad,
			a.AvgLatency*1000, rep.TotalEnergyMJ)
	}
	add("RTM (knobs+monitors)", managed, res.ManagedReport)
	add("ondemand governor", baseline, res.BaselineReport)
	return res, nil
}

// governorRun runs a scenario under the ondemand governor (static mapping,
// no model scaling) instead of the manager: the application-blind
// baseline Fig 5 and ablation A3 compare against. The scenario's scripted
// actions apply as in a managed run, through a ScenarioController with no
// manager, so both controllers face the same disturbances; an action that
// calls the manager does nothing. A scenario with fault windows is
// refused: neither experiment's scenario has any, and the governor run
// does not apply them. So is a script Scenario.Check refuses, as a managed
// run refuses it.
func governorRun(s workload.Scenario, plat *hw.Platform, tickS float64) (*sim.Engine, error) {
	if len(s.Faults) > 0 {
		return nil, fmt.Errorf("governor run of %q: %d fault windows not supported", s.Name, len(s.Faults))
	}
	if err := s.Check(plat); err != nil {
		return nil, fmt.Errorf("governor run of %q: %w", s.Name, err)
	}
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       s.Apps,
		Controller: governed{workload.NewScenarioController(nil, s.Actions), rtm.NewGovernorController()},
		TickS:      tickS,
	})
	if err != nil {
		return nil, err
	}
	return e, e.Run(s.EndS)
}

// governed applies a scenario's actions on each tick, then lets the
// governor act, as ScenarioController does for a manager.
type governed struct {
	script *workload.ScenarioController
	gov    *rtm.GovernorController
}

func (g governed) OnTick(e *sim.Engine) {
	g.script.OnTick(e)
	g.gov.OnTick(e)
}

func (g governed) OnEvent(e *sim.Engine, ev sim.Event) { g.gov.OnEvent(e, ev) }
