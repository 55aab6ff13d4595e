// Package workload builds the workload mixes of the paper's scenarios:
// DNN inference streams with frame-rate requirements, AR/VR render load,
// background tasks, and the scripted Fig 2 timeline with its runtime
// disturbances (app arrivals, an environmental thermal event, a
// requirement change).
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// Action is one scripted scenario step. Do receives the run's engine and
// its manager, which is nil in a run without one (a governor baseline):
// an action that calls the manager does nothing when there is none.
type Action struct {
	AtS  float64
	Name string
	Do   func(e *sim.Engine, m *rtm.Manager)
}

// FaultWindow is one scripted hardware fault: the named cluster drops
// offline at FailS and, when RepairS > 0, comes back at RepairS. A zero
// RepairS means the cluster stays dead for the rest of the run. A run
// refuses a window whose times are not finite or whose cluster its
// platform lacks, and an action whose AtS is not finite.
type FaultWindow struct {
	Cluster string
	FailS   float64
	RepairS float64
}

// Scenario bundles everything a scripted run needs.
type Scenario struct {
	Name string
	Apps []sim.App
	// Reqs holds the DNNs' requirements (an app named twice takes its
	// later entry; an app not named gets defaults). The manager copies
	// them at the start of a run, so a run never writes to them.
	Reqs    rtm.Requirements
	Actions []Action
	// Faults are seeded hardware-fault windows, applied at tick quantisation
	// like Actions: at one instant, after the scripted actions.
	Faults []FaultWindow
	EndS   float64
	// Policy names the registered planning policy the manager runs under
	// ("" = the default heuristic). Run resolves it via rtm.NewPolicy, so
	// the same scripted workload can be replayed under any strategy.
	Policy string
	// Planner, when non-nil, is the policy *instance* the manager runs,
	// taking precedence over Policy. It exists for callers whose policies
	// carry per-run state the name registry cannot construct — the fleet
	// trainer's exploring rtm.NewArmSelector, or bench's learned policy
	// over an in-memory table — while keeping every other execution
	// detail identical to a named run.
	Planner rtm.Policy
}

// ScenarioController wraps a manager, applying scripted actions and fault
// windows at their times (quantised to the controller tick) before
// delegating to the manager — disturbances arrive "from outside" exactly
// as in Fig 2. A nil manager applies them alone.
type ScenarioController struct {
	Mgr *rtm.Manager
	// steps holds the scripted steps in the order they apply: the
	// actions, then each fault window's fail and repair, sorted stably by
	// time. The next one due is steps[next].
	steps []scriptStep
	next  int
}

// scriptStep is one scripted step due at atS: an action's do, or, with
// do nil, a fault transition that takes cluster offline or brings it
// back.
type scriptStep struct {
	atS     float64
	do      func(e *sim.Engine, m *rtm.Manager)
	cluster string
	online  bool
}

// NewScenarioController sorts the actions by time and wires the manager.
// It does not check the action times: call Scenario.Check first, or a NaN
// time sorts first and, never due, holds back every later action.
func NewScenarioController(m *rtm.Manager, actions []Action) *ScenarioController {
	c := &ScenarioController{}
	c.reset(m, actions, nil)
	return c
}

// reset rewires c as NewScenarioController would build it for actions and
// the transitions of faults, gathered into c's own step buffer (never
// the caller's slices): the actions in their order, then each window's
// fail and repair, in window order, sorted once, stably, by time. So
// fault windows share the actions' tick quantisation, and at one instant
// an action applies before a transition.
func (c *ScenarioController) reset(m *rtm.Manager, actions []Action, faults []FaultWindow) {
	steps := c.steps[:0]
	for _, a := range actions {
		steps = append(steps, scriptStep{atS: a.AtS, do: a.Do})
	}
	for _, fw := range faults {
		steps = append(steps, scriptStep{atS: fw.FailS, cluster: fw.Cluster})
		if fw.RepairS > 0 {
			steps = append(steps, scriptStep{atS: fw.RepairS, cluster: fw.Cluster, online: true})
		}
	}
	slices.SortStableFunc(steps, func(a, b scriptStep) int { return cmp.Compare(a.atS, b.atS) })
	*c = ScenarioController{Mgr: m, steps: steps}
}

// OnTick implements sim.Controller: it applies every scripted step due by
// now, in order, then ticks the manager. The engine calls it on the ticks
// NextWake makes due. A transition's SetClusterOnline error is ignored: a
// duplicate transition is a no-op.
func (c *ScenarioController) OnTick(e *sim.Engine) {
	for now := e.Now(); c.next < len(c.steps) && c.steps[c.next].atS <= now; {
		s := c.steps[c.next]
		c.next++
		if s.do == nil {
			_ = e.SetClusterOnline(s.cluster, s.online)
		} else {
			s.do(e, c.Mgr)
		}
	}
	if c.Mgr != nil {
		c.Mgr.OnTick(e)
	}
}

// NextWake implements sim.Waker: the manager's wake (none without one),
// with the next step's time added, the time OnTick compares the clock
// with.
//
//detlint:hotpath
func (c *ScenarioController) NextWake(e *sim.Engine) sim.Wake {
	var w sim.Wake
	if c.Mgr != nil {
		w = c.Mgr.NextWake(e)
	}
	if c.next < len(c.steps) {
		w.Add(sim.WakeTerm{AfterS: c.steps[c.next].atS})
	}
	return w
}

// OnEvent implements sim.Controller.
func (c *ScenarioController) OnEvent(e *sim.Engine, ev sim.Event) {
	if c.Mgr != nil {
		c.Mgr.OnEvent(e, ev)
	}
}

var (
	_ sim.Controller = (*ScenarioController)(nil)
	_ sim.Waker      = (*ScenarioController)(nil)
)

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
	reqs := rtm.Requirements{
		{App: "dnn1", Requirement: rtm.Requirement{MinAccuracy: 0.70, Priority: 1}},
		{App: "dnn2", Requirement: rtm.Requirement{MinAccuracy: 0.70, Priority: 2}},
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
				if m == nil {
					return
				}
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
	reqs := rtm.Requirements{
		{App: "dnn", Requirement: rtm.Requirement{MinAccuracy: 0.60, Priority: 1}},
	}
	return Scenario{Name: "fig5", Apps: apps, Reqs: reqs, EndS: 30}
}

// Run executes a scenario with the manager in the loop on freshly built
// parts and returns the engine for inspection, the manager, and the final
// report. The report carries the full event log as well as the latency
// log, and the manager narrates its decisions through logf (nil for
// silence).
func Run(s Scenario, plat *hw.Platform, tickS float64, logf func(string, ...any)) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	return new(Stack).run(&s, plat, tickS, logf, true)
}

// Stack is the machinery a scenario runs on — the engine, the runtime
// manager and the scripted controller — kept for reuse. A caller running
// scenarios one after another (a fleet worker) calls Run on the same
// Stack for each, which Resets each part in place instead of building
// it, so construction is paid once per Stack and a run replans out of
// the buffers the previous runs grew. The zero Stack is ready to use; a
// Stack must not be shared between goroutines.
type Stack struct {
	eng  *sim.Engine
	mgr  *rtm.Manager
	ctrl ScenarioController
}

// Run is the package Run on the stack's reused parts, with no event log
// and no decision log: the report's LatenciesNS is the only log it
// carries. A run on a reused Stack is byte-identical to one on a fresh
// Stack, because Reset restores every part to its constructed state and
// keeps only scratch buffers. The returned engine and manager belong to
// the stack: consume them, and the Report, before its next run, whose
// Resets rewrite the manager's counters and the engine buffers the
// Report's Apps and LatenciesNS alias. The caller may permute LatenciesNS
// in place, as the fleet's latency summary does: the stack reads it no
// more, and the next Reset truncates it. After an error the stack drops
// its engine, so a half-run engine is never reused. Replan elision is
// always on; a Planner outside rtm's sealed elision seam, or one that
// declines it (rtm.NewArmSelector's), plans every replan fresh. The run
// only reads *s and keeps no pointer to it.
func (st *Stack) Run(s *Scenario, plat *hw.Platform, tickS float64) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	return st.run(s, plat, tickS, nil, false)
}

// run is the one run path behind Run and Stack.Run: logEvents keeps the
// event log, logf receives the manager's decision log. Neither changes a
// simulated outcome.
func (st *Stack) run(s *Scenario, plat *hw.Platform, tickS float64, logf func(string, ...any), logEvents bool) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	if err := s.Check(plat); err != nil {
		return nil, nil, sim.Report{}, err
	}
	if err := st.setup(s, logf); err != nil {
		return nil, nil, sim.Report{}, err
	}
	return st.start(sim.Config{
		Platform:   plat,
		Apps:       s.Apps,
		Controller: &st.ctrl,
		TickS:      tickS,
		LogEvents:  logEvents,
	}, s.EndS)
}

// Check refuses a script whose steps could not apply as written on plat,
// as sim.Reset refuses an app time that is not finite: a step at a time
// that is not finite falls on no tick (a NaN one would sort first and,
// never due, hold back every later step), and a fault window on a cluster
// plat lacks would fail nothing. A nil plat is sim.Reset's error to
// report. Run and Stack.Run check every script; a caller driving
// NewScenarioController itself calls Check first.
func (s *Scenario) Check(plat *hw.Platform) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for i, a := range s.Actions {
		if !finite(a.AtS) {
			return fmt.Errorf("workload: action %d (%q) at %g s: time must be finite", i, a.Name, a.AtS)
		}
	}
	for i, fw := range s.Faults {
		if !finite(fw.FailS) || !finite(fw.RepairS) {
			return fmt.Errorf("workload: fault window %d on %q: fail %g s and repair %g s must be finite", i, fw.Cluster, fw.FailS, fw.RepairS)
		}
		if plat != nil && plat.Cluster(fw.Cluster) == nil {
			return fmt.Errorf("workload: fault window %d names cluster %q, which %s lacks", i, fw.Cluster, plat.Name)
		}
	}
	return nil
}

// setup resets the stack's manager and scripted controller for s: the
// scenario's policy and requirements, logf as the decision log, and its
// actions and fault windows.
func (st *Stack) setup(s *Scenario, logf func(string, ...any)) error {
	pol := s.Planner
	if pol == nil {
		var err error
		pol, err = rtm.NewPolicy(s.Policy)
		if err != nil {
			return err
		}
	}
	if st.mgr == nil {
		st.mgr = rtm.NewManager(s.Reqs)
	} else {
		st.mgr.Reset(s.Reqs)
	}
	st.mgr.SetPolicy(pol)
	st.mgr.Logf = logf
	st.ctrl.reset(st.mgr, s.Actions, s.Faults)
	return nil
}

// start resets the stack's engine for cfg and runs it to endS.
func (st *Stack) start(cfg sim.Config, endS float64) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	var err error
	if st.eng == nil {
		st.eng, err = sim.New(cfg)
	} else {
		err = st.eng.Reset(cfg)
	}
	if err == nil {
		err = st.eng.Run(endS)
	}
	if err != nil {
		st.eng = nil
		return nil, nil, sim.Report{}, err
	}
	return st.eng, st.mgr, st.eng.Report(), nil
}
