// Package workload builds the workload mixes of the paper's scenarios:
// DNN inference streams with frame-rate requirements, AR/VR render load,
// background tasks, and the scripted Fig 2 timeline with its runtime
// disturbances (app arrivals, an environmental thermal event, a
// requirement change).
package workload

import (
	"slices"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// Action is one scripted scenario step.
type Action struct {
	AtS  float64
	Name string
	Do   func(e *sim.Engine, m *rtm.Manager)
}

// FaultWindow is one scripted hardware fault: the named cluster drops
// offline at FailS and, when RepairS > 0, comes back at RepairS. A zero
// RepairS means the cluster stays dead for the rest of the run.
type FaultWindow struct {
	Cluster string
	FailS   float64
	RepairS float64
}

// Scenario bundles everything a scripted run needs.
type Scenario struct {
	Name    string
	Apps    []sim.App
	Reqs    map[string]rtm.Requirement
	Actions []Action
	// Faults are seeded hardware-fault windows, applied at tick quantisation
	// like Actions (they are converted to fail/repair actions at run time).
	Faults []FaultWindow
	EndS   float64
	// Policy names the registered planning policy the manager runs under
	// ("" = the default heuristic). Run resolves it via rtm.NewPolicy, so
	// the same scripted workload can be replayed under any strategy.
	Policy string
	// Planner, when non-nil, is the policy *instance* the manager runs,
	// taking precedence over Policy. It exists for callers whose policies
	// carry per-run state the name registry cannot construct — the fleet
	// trainer's recording/exploring policies — while keeping every other
	// execution detail identical to a named run.
	Planner rtm.Policy
}

// ScenarioController wraps a manager, applying scripted actions at their
// times (quantised to the controller tick) before delegating to the
// manager — disturbances arrive "from outside" exactly as in Fig 2.
type ScenarioController struct {
	Mgr     *rtm.Manager
	Actions []Action
	applied int
}

// NewScenarioController sorts the actions by time and wires the manager.
func NewScenarioController(m *rtm.Manager, actions []Action) *ScenarioController {
	c := &ScenarioController{}
	c.reset(m, actions, nil)
	return c
}

// reset rewires c as NewScenarioController would build it for actions
// plus the fail/repair actions of faults, gathered into c's own buffer
// (never the caller's) and sorted stably by time. Fault windows thus
// share the Actions path's tick quantisation and deterministic ordering,
// and the stable sort keeps fail-before-repair for windows converted in
// order.
func (c *ScenarioController) reset(m *rtm.Manager, actions []Action, faults []FaultWindow) {
	sorted := appendFaultActions(append(c.Actions[:0], actions...), faults)
	slices.SortStableFunc(sorted, func(a, b Action) int {
		switch {
		case a.AtS < b.AtS:
			return -1
		case b.AtS < a.AtS:
			return 1
		}
		return 0
	})
	*c = ScenarioController{Mgr: m, Actions: sorted}
}

// OnTick implements sim.Controller.
func (c *ScenarioController) OnTick(e *sim.Engine) {
	for c.applied < len(c.Actions) && c.Actions[c.applied].AtS <= e.Now() {
		a := c.Actions[c.applied]
		c.applied++
		a.Do(e, c.Mgr)
	}
	if c.Mgr != nil {
		c.Mgr.OnTick(e)
	}
}

// OnEvent implements sim.Controller.
func (c *ScenarioController) OnEvent(e *sim.Engine, ev sim.Event) {
	if c.Mgr != nil {
		c.Mgr.OnEvent(e, ev)
	}
}

var _ sim.Controller = (*ScenarioController)(nil)

// Fig2Scenario reproduces the paper's runtime timeline (Fig 2) on the
// flagship SoC:
//
//	t=0   DNN1 (25 fps, min accuracy 0.70) starts; expected on the NPU at
//	      the 100% configuration with the companion CPU pre-processing.
//	t=5   DNN2 (60 fps, min accuracy 0.70, higher priority) starts;
//	      expected to claim the NPU, pushing DNN1 to the GPU compressed
//	      (75%), trading accuracy.
//	t=15  An AR/VR app occupies 75% of the GPU; DNN1 is expected to move
//	      to the big CPU cluster, compressed further (25%).
//	t=18  The device enters a hot environment (ambient 25→40 °C); the SoC
//	      crosses its thermal limit shortly after, and the manager must
//	      shed power: DNN1 ends up compressed on a low-power allocation.
//	t=25  DNN2's accuracy requirement is reduced to 0.60; it compresses to
//	      50%, freeing NPU memory, and the manager co-locates both DNNs on
//	      the NPU (Fig 2(d)).
func Fig2Scenario() Scenario {
	prof := perf.MobileProfile()
	apps := []sim.App{
		{
			Name:       "dnn1",
			Kind:       sim.KindDNN,
			Profile:    prof,
			Level:      4,
			PeriodS:    0.040, // 25 fps
			ModelBytes: 7 << 20,
			Placement:  sim.Placement{Cluster: "npu"},
		},
		{
			Name:       "dnn2",
			Kind:       sim.KindDNN,
			Profile:    prof,
			Level:      4,
			PeriodS:    1.0 / 60, // 60 fps: the stricter latency requirement
			ModelBytes: 7 << 20,
			StartS:     5,
			Placement:  sim.Placement{Cluster: "cpu-big", Cores: 4},
		},
		{
			Name:      "vrapp",
			Kind:      sim.KindRender,
			Util:      0.75,
			StartS:    15,
			Placement: sim.Placement{Cluster: "gpu"},
		},
	}
	reqs := map[string]rtm.Requirement{
		"dnn1": {MinAccuracy: 0.70, Priority: 1},
		"dnn2": {MinAccuracy: 0.70, Priority: 2},
	}
	actions := []Action{
		{
			AtS:  18,
			Name: "hot-environment",
			// SetAmbient refuses only a non-finite ambient.
			Do: func(e *sim.Engine, m *rtm.Manager) { _ = e.SetAmbient(40) },
		},
		{
			AtS:  25,
			Name: "dnn2-accuracy-requirement-reduced",
			Do: func(e *sim.Engine, m *rtm.Manager) {
				m.SetRequirement("dnn2", rtm.Requirement{MinAccuracy: 0.60, Priority: 2})
				m.Replan(e)
			},
		},
	}
	return Scenario{
		Name:    "fig2",
		Apps:    apps,
		Reqs:    reqs,
		Actions: actions,
		EndS:    35,
	}
}

// Fig5Scenario is a closed-loop disturbance run used by the Fig 5
// experiment: a single DNN with a latency budget and accuracy floor on the
// Odroid XU3 while a background task arrives on the same cluster mid-run
// and later leaves. The manager must hold the budget through the
// disturbance using the level, mapping and DVFS knobs.
func Fig5Scenario(prof perf.ModelProfile) Scenario {
	apps := []sim.App{
		{
			Name:       "dnn",
			Kind:       sim.KindDNN,
			Profile:    prof,
			Level:      prof.MaxLevel(),
			PeriodS:    0.250,
			ModelBytes: 350 << 10,
			Placement:  sim.Placement{Cluster: "a15", Cores: 4},
		},
		{
			Name:      "burst",
			Kind:      sim.KindBackground,
			Util:      1.0,
			StartS:    10,
			StopS:     20,
			Placement: sim.Placement{Cluster: "a15", Cores: 3},
		},
	}
	reqs := map[string]rtm.Requirement{
		"dnn": {MinAccuracy: 0.60, Priority: 1},
	}
	return Scenario{Name: "fig5", Apps: apps, Reqs: reqs, EndS: 30}
}

// Run executes a scenario with the manager in the loop and returns the
// engine for inspection, the manager, and the final report.
func Run(s Scenario, plat *hw.Platform, tickS float64, logf func(string, ...any)) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	return RunEngineOpts(nil, s, plat, tickS, logf, RunOptions{})
}

// RunOptions carries logging wiring for RunEngineOpts. The zero value is
// the default behaviour: the Report carries the full event log.
type RunOptions struct {
	// LatenciesOnly keeps the latency log instead of the event log
	// (sim.Config.LogLatencies): the Report carries Latencies and no
	// Events. Fleet runs read nothing else from the log.
	LatenciesOnly bool
}

// Stack is the machinery a scenario runs on — the engine, the runtime
// manager and the scripted controller — kept for reuse. A caller running
// scenarios one after another (a fleet worker) passes the same Stack to
// every RunEngineOpts call, which Resets each part in place instead of
// building it, so construction is paid once per Stack and a run replans
// out of the buffers the previous runs grew. The zero Stack is ready to
// use; a Stack must not be shared between goroutines.
type Stack struct {
	eng  *sim.Engine
	mgr  *rtm.Manager
	ctrl ScenarioController
}

// RunEngineOpts is Run on a reusable Stack with the wiring in opts. A nil
// stack runs on freshly built parts, exactly as Run does; a run on a
// reused Stack is byte-identical to one on a fresh Stack, because Reset
// restores every part to its constructed state and keeps only scratch
// buffers. The returned engine and manager belong to the stack: consume
// them, and the Report, before its next run, whose Resets rewrite the
// manager's counters and the engine logs the Report's Events and
// Latencies alias. After an error the stack drops its engine, so a
// half-run engine is never reused. The options change no simulated
// outcome, only what the Report logs. Replan elision is always on; a
// Planner outside rtm's sealed elision seam plans every replan fresh.
func RunEngineOpts(st *Stack, s Scenario, plat *hw.Platform, tickS float64, logf func(string, ...any), opts RunOptions) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	pol := s.Planner
	if pol == nil {
		var err error
		pol, err = rtm.NewPolicy(s.Policy)
		if err != nil {
			return nil, nil, sim.Report{}, err
		}
	}
	if st == nil {
		st = &Stack{}
	}
	if st.mgr == nil {
		st.mgr = rtm.NewManager(s.Reqs)
	} else {
		st.mgr.Reset(s.Reqs)
	}
	mgr := st.mgr
	mgr.SetPolicy(pol)
	mgr.Logf = logf
	st.ctrl.reset(mgr, s.Actions, s.Faults)
	cfg := sim.Config{
		Platform:     plat,
		Apps:         s.Apps,
		Controller:   &st.ctrl,
		TickS:        tickS,
		LogEvents:    !opts.LatenciesOnly,
		LogLatencies: opts.LatenciesOnly,
	}
	var err error
	if st.eng == nil {
		st.eng, err = sim.New(cfg)
	} else {
		err = st.eng.Reset(cfg)
	}
	if err == nil {
		err = st.eng.Run(s.EndS)
	}
	if err != nil {
		st.eng = nil
		return nil, nil, sim.Report{}, err
	}
	return st.eng, mgr, st.eng.Report(), nil
}

// appendFaultActions appends the fail/repair actions of fault windows to
// out. The SetClusterOnline error is ignored by design: a window naming an
// unknown cluster is a scenario-authoring bug that validation should
// catch, and a duplicate transition is a no-op.
func appendFaultActions(out []Action, faults []FaultWindow) []Action {
	for _, fw := range faults {
		cluster := fw.Cluster
		out = append(out, Action{
			AtS:  fw.FailS,
			Name: "fault-" + cluster,
			Do:   func(e *sim.Engine, m *rtm.Manager) { _ = e.SetClusterOnline(cluster, false) },
		})
		if fw.RepairS > 0 {
			out = append(out, Action{
				AtS:  fw.RepairS,
				Name: "repair-" + cluster,
				Do:   func(e *sim.Engine, m *rtm.Manager) { _ = e.SetClusterOnline(cluster, true) },
			})
		}
	}
	return out
}
