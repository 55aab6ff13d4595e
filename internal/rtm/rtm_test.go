package rtm

import (
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

func TestRegistryKnobLifecycle(t *testing.T) {
	r := NewRegistry()
	applied := -1
	k, err := r.RegisterKnob("app.x.level", LayerApplication, 1, 4, 2,
		func(v int) error { applied = v; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if k.Value() != 2 {
		t.Fatalf("initial value %d", k.Value())
	}
	if err := k.Set(3); err != nil || applied != 3 || k.Value() != 3 {
		t.Fatalf("Set failed: err=%v applied=%d value=%d", err, applied, k.Value())
	}
	if err := k.Set(9); err == nil {
		t.Fatal("out-of-range Set must fail")
	}
	if k.Value() != 3 {
		t.Fatal("failed Set must not change value")
	}
	if _, err := r.RegisterKnob("app.x.level", LayerApplication, 1, 4, 1, nil); err == nil {
		t.Fatal("duplicate knob must be rejected")
	}
	if _, err := r.RegisterKnob("bad", LayerDevice, 3, 1, 2, nil); err == nil {
		t.Fatal("inverted range must be rejected")
	}
}

func TestRegistryMonitorsAndNames(t *testing.T) {
	r := NewRegistry()
	if _, err := r.RegisterMonitor("dev.temp", LayerDevice, "C", func() float64 { return 42 }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterMonitor("app.lat", LayerApplication, "s", func() float64 { return 0.1 }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterMonitor("dev.temp", LayerDevice, "C", nil); err == nil {
		t.Fatal("duplicate monitor must be rejected")
	}
	if got := r.Monitor("dev.temp").Read(); got != 42 {
		t.Fatalf("Read = %v", got)
	}
	if names := r.MonitorNames(LayerDevice); len(names) != 1 || names[0] != "dev.temp" {
		t.Fatalf("device monitors = %v", names)
	}
	if names := r.KnobNames(""); len(names) != 0 {
		t.Fatalf("knobs = %v", names)
	}
	snap := r.Snapshot()
	if snap["dev.temp"] != 42 || snap["app.lat"] != 0.1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestGovernorDecisions(t *testing.T) {
	if got := (PerformanceGovernor{}).Decide(0, 0, 10); got != 9 {
		t.Fatalf("performance -> %d", got)
	}
	if got := (PowersaveGovernor{}).Decide(1, 9, 10); got != 0 {
		t.Fatalf("powersave -> %d", got)
	}
	g := OndemandGovernor{}
	if got := g.Decide(0.9, 3, 10); got != 9 {
		t.Fatalf("ondemand high util -> %d", got)
	}
	if got := g.Decide(0.1, 3, 10); got != 2 {
		t.Fatalf("ondemand low util -> %d", got)
	}
	if got := g.Decide(0.5, 3, 10); got != 3 {
		t.Fatalf("ondemand mid util -> %d", got)
	}
	if got := g.Decide(0.1, 0, 10); got != 0 {
		t.Fatal("ondemand must not underflow")
	}
	for _, gov := range []Governor{PerformanceGovernor{}, PowersaveGovernor{}, g} {
		if gov.Name() == "" {
			t.Fatal("governor must have a name")
		}
	}
}

func dnn(name, cluster string, cores int, periodS float64) sim.App {
	return sim.App{
		Name:       name,
		Kind:       sim.KindDNN,
		Profile:    perf.PaperReferenceProfile(),
		Level:      4,
		PeriodS:    periodS,
		ModelBytes: 350 << 10,
		Placement:  sim.Placement{Cluster: cluster, Cores: cores},
	}
}

func TestGovernorControllerRampsUpAndDown(t *testing.T) {
	plat := hw.OdroidXU3()
	ctrl := NewGovernorController(OndemandGovernor{})
	// 100% model at 4 fps: at 200 MHz latency ~1.8s → util 1 → governor
	// must ramp the A15 up; once fast, util drops and it steps back down.
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{dnn("d", "a15", 4, 0.25)},
		Controller: ctrl,
		TickS:      0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.OPPSwitches == 0 {
		t.Fatal("ondemand governor never changed frequency")
	}
	info, _ := e.App("d")
	if info.Completed == 0 {
		t.Fatal("no jobs completed")
	}
}

// The manager must hold a latency budget that a pure governor cannot:
// when the model is too big for the budget anywhere, it compresses it.
func TestManagerCompressesToMeetLatency(t *testing.T) {
	plat := hw.OdroidXU3()
	// 100% model cheapest latency on XU3 is ~115 ms (A15@1.8GHz); a 60 ms
	// budget forces level 2 or below (level 2 @1.8GHz ≈ 59.6 ms).
	mgr := NewManager(map[string]Requirement{
		"d": {MaxLatencyS: 0.060, Priority: 1},
	})
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{dnn("d", "a15", 4, 0.060)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	info, _ := e.App("d")
	if info.Level > 2 {
		t.Fatalf("manager left level %d; budget requires <= 2", info.Level)
	}
	if info.Completed == 0 {
		t.Fatal("no jobs completed")
	}
	missRate := float64(info.Missed+info.Dropped) / float64(info.Released)
	if missRate > 0.1 {
		t.Fatalf("miss rate %.2f too high under manager", missRate)
	}
}

// With an accuracy floor, the manager must pick the minimal level meeting
// it and the cheapest cluster that holds the latency budget.
func TestManagerRespectsAccuracyFloor(t *testing.T) {
	plat := hw.OdroidXU3()
	mgr := NewManager(map[string]Requirement{
		"d": {MinAccuracy: 0.70, Priority: 1}, // → level 4 (0.712)
	})
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{dnn("d", "a15", 4, 1.0)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	info, _ := e.App("d")
	if info.Level != 4 {
		t.Fatalf("level %d, want 4 for 0.70 accuracy floor", info.Level)
	}
	// Energy-first: with a 1 s period the A7 can hold the budget far more
	// cheaply than the A15.
	if info.Placement.Cluster != "a7" {
		t.Fatalf("placed on %s, want a7 (cheapest feasible)", info.Placement.Cluster)
	}
}

// Reactive thermal path: plan is feasible at ambient 25, then ambient
// jumps; the die crosses the throttle point, the alarm fires, and the
// manager sheds power until the temperature recovers.
func TestManagerReactsToThermalAlarm(t *testing.T) {
	plat := hw.FlagshipSoC()
	mgr := NewManager(map[string]Requirement{
		// The accuracy floor forces a large configuration, so the planned
		// point draws real power (~2.2 W with statics) and the ambient jump
		// pushes steady-state past the 65 °C trip point.
		"d": {MaxLatencyS: 0.040, MinAccuracy: 0.70, Priority: 1},
	})
	app := dnn("d", "cpu-big", 4, 0.040)
	app.Profile = perf.UniformProfile("hot", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	app.ModelBytes = 12 << 20 // levels 3-4 exceed the 8 MiB NPU: forces CPU/GPU for high accuracy
	type ambientCtl struct{ done bool }
	ac := &ambientCtl{}
	wrapper := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !ac.done && e.Now() >= 4 {
				e.SetAmbient(50)
				ac.done = true
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{app},
		Controller: wrapper,
		TickS:      0.25,
		LogEvents:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	sawAlarm := false
	for _, ev := range rep.Events {
		if ev.Kind == sim.EvThermalAlarm {
			sawAlarm = true
		}
	}
	if !sawAlarm {
		t.Fatalf("no thermal alarm fired (maxT %.1f)", rep.MaxTempC)
	}
	if mgr.Pressure() == 0 && rep.OverThrottleS > 2 {
		t.Fatal("manager did not respond to thermal pressure")
	}
	// The die must not run away to the critical point.
	if rep.OverCriticalS > 0 {
		t.Fatalf("critical temperature violated for %.2fs", rep.OverCriticalS)
	}
	if rep.MaxTempC >= plat.Thermal.CriticalC {
		t.Fatalf("max temp %.1f reached critical", rep.MaxTempC)
	}
}

func TestManagerBuildsRegistry(t *testing.T) {
	plat := hw.OdroidXU3()
	mgr := NewManager(nil)
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	reg := mgr.Registry()
	if reg == nil {
		t.Fatal("registry not built")
	}
	wantKnobs := []string{"app.d.level", "dev.a15.opp", "dev.a7.opp"}
	got := reg.KnobNames("")
	if strings.Join(got, ",") != strings.Join(wantKnobs, ",") {
		t.Fatalf("knobs = %v, want %v", got, wantKnobs)
	}
	for _, mn := range []string{"app.d.latency", "app.d.accuracy", "dev.temperature", "dev.power"} {
		if reg.Monitor(mn) == nil {
			t.Fatalf("monitor %s missing", mn)
		}
	}
	if v := reg.Monitor("dev.power").Read(); v <= 0 {
		t.Fatalf("power monitor read %v", v)
	}
	// Knob values read through to the engine, however it was actuated:
	// by the manager's plans, directly, or through the knob itself.
	checkKnobs := func(when string) {
		t.Helper()
		app, err := e.App("d")
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Knob("app.d.level").Value(); got != app.Level {
			t.Errorf("%s: app.d.level knob reads %d, engine level %d", when, got, app.Level)
		}
		for _, cl := range []string{"a15", "a7"} {
			info, err := e.Cluster(cl)
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.Knob("dev." + cl + ".opp").Value(); got != info.OPPIndex {
				t.Errorf("%s: dev.%s.opp knob reads %d, engine OPP %d", when, cl, got, info.OPPIndex)
			}
		}
	}
	checkKnobs("after the run")
	a7, err := e.Cluster("a7")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetOPP("a7", (a7.OPPIndex+1)%len(plat.Cluster("a7").OPPs)); err != nil {
		t.Fatal(err)
	}
	checkKnobs("after a direct SetOPP")
	if err := reg.Knob("app.d.level").Set(1); err != nil {
		t.Fatal(err)
	}
	checkKnobs("after a knob Set")
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	checkKnobs("after more planning")
}

func TestManagerRequirementChangeTriggersReplan(t *testing.T) {
	plat := hw.OdroidXU3()
	mgr := NewManager(map[string]Requirement{
		"d": {MinAccuracy: 0.70, Priority: 1},
	})
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{dnn("d", "a15", 4, 1.0)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	before, _ := e.App("d")
	if before.Level != 4 {
		t.Fatalf("precondition: level %d", before.Level)
	}
	plansBefore := mgr.Plans()
	mgr.SetRequirement("d", Requirement{MinAccuracy: 0.55, Priority: 1})
	mgr.Replan(e)
	if mgr.Plans() != plansBefore+1 {
		t.Fatal("explicit Replan did not run")
	}
	after := mgr.LastPlan()
	if len(after) != 1 || after[0].Level != 1 {
		t.Fatalf("after relaxation plan = %+v, want level 1 (0.56 >= 0.55)", after)
	}
}

func TestManagerPlanRecorded(t *testing.T) {
	plat := hw.OdroidXU3()
	mgr := NewManager(nil)
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	plan := mgr.LastPlan()
	if len(plan) != 1 {
		t.Fatalf("plan size %d", len(plan))
	}
	if plan[0].App != "d" || plan[0].String() == "" {
		t.Fatalf("plan = %+v", plan[0])
	}
	if mgr.Plans() < 1 {
		t.Fatal("plan counter not incremented")
	}
}

type ctrlFuncs struct {
	tick  func(*sim.Engine)
	event func(*sim.Engine, sim.Event)
}

func (c ctrlFuncs) OnTick(e *sim.Engine) {
	if c.tick != nil {
		c.tick(e)
	}
}
func (c ctrlFuncs) OnEvent(e *sim.Engine, ev sim.Event) {
	if c.event != nil {
		c.event(e, ev)
	}
}
