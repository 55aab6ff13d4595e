package rtm

import (
	"reflect"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

func TestGovernorDecisions(t *testing.T) {
	if got := ondemandOPP(0.9, 3, 10); got != 9 {
		t.Fatalf("ondemand high util -> %d", got)
	}
	if got := ondemandOPP(ondemandUpUtil, 3, 10); got != 9 {
		t.Fatalf("ondemand at the up threshold -> %d", got)
	}
	if got := ondemandOPP(0.1, 3, 10); got != 2 {
		t.Fatalf("ondemand low util -> %d", got)
	}
	if got := ondemandOPP(0.5, 3, 10); got != 3 {
		t.Fatalf("ondemand mid util -> %d", got)
	}
	if got := ondemandOPP(ondemandDownUtil, 3, 10); got != 3 {
		t.Fatalf("ondemand at the down threshold -> %d", got)
	}
	if got := ondemandOPP(0.1, 0, 10); got != 0 {
		t.Fatal("ondemand must not underflow")
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
	ctrl := NewGovernorController()
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
	mgr := NewManager(Requirements{
		{"d", Requirement{MaxLatencyS: 0.060, Priority: 1}},
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
	mgr := NewManager(Requirements{
		{"d", Requirement{MinAccuracy: 0.70, Priority: 1}}, // → level 4 (0.712)
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
	mgr := NewManager(Requirements{
		// The accuracy floor forces a large configuration, so the planned
		// point draws real power (~2.2 W with statics) and the ambient jump
		// pushes steady-state past the 65 °C trip point.
		{"d", Requirement{MaxLatencyS: 0.040, MinAccuracy: 0.70, Priority: 1}},
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
	if mgr.pressure == 0 && rep.OverThrottleS > 2 {
		t.Fatal("manager did not respond to thermal pressure")
	}
	// The die must not run away to the critical point.
	if rep.MaxTempC >= plat.Thermal.CriticalC {
		t.Fatalf("max temp %.1f reached critical", rep.MaxTempC)
	}
}

func TestManagerNamesKnobsAndMonitors(t *testing.T) {
	plat := hw.OdroidXU3()
	mgr := NewManager(nil)
	if knobs, monitors := mgr.KnobsAndMonitors(); knobs != nil || monitors != nil {
		t.Fatalf("before the first plan: knobs %v, monitors %v, want none", knobs, monitors)
	}
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
	knobs, monitors := mgr.KnobsAndMonitors()
	wantKnobs := []string{"app.d.level", "dev.a15.opp", "dev.a7.opp"}
	if strings.Join(knobs, ",") != strings.Join(wantKnobs, ",") {
		t.Fatalf("knobs = %v, want %v", knobs, wantKnobs)
	}
	wantMonitors := []string{"app.d.accuracy", "app.d.latency", "dev.power", "dev.temperature"}
	if strings.Join(monitors, ",") != strings.Join(wantMonitors, ",") {
		t.Fatalf("monitors = %v, want %v", monitors, wantMonitors)
	}
}

// TestLastViewAcrossFreshReplans: the manager keeps its last view as a
// header over the snapshot buffers the next fresh replan rewrites. After
// two fresh replans over different views, LastView must show the second,
// and a copy taken after the first must be unchanged.
func TestLastViewAcrossFreshReplans(t *testing.T) {
	late := dnn("late", "a7", 2, 0.5)
	late.StartS = 1
	rec := &viewRecorder{}
	mgr := NewManager(nil)
	mgr.SetPolicy(rec)
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5), late},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0.5); err != nil {
		t.Fatal(err)
	}
	first := mgr.LastView()
	firstCopy := first.Clone()
	planned := len(rec.views)
	if planned == 0 || !reflect.DeepEqual(first, rec.views[planned-1]) {
		t.Fatalf("after %d plans LastView is not the view last planned over", planned)
	}
	if err := e.Run(1.5); err != nil {
		t.Fatal(err)
	}
	second := mgr.LastView()
	if len(rec.views) == planned || !reflect.DeepEqual(second, rec.views[len(rec.views)-1]) {
		t.Fatalf("after %d plans LastView is not the view last planned over", len(rec.views))
	}
	if first.Apps[1].Running || !second.Apps[1].Running || second.NowS < 1 {
		t.Fatalf("late app running: %v in the first view, %v in the second (at %gs); want false, then true at 1s or later",
			first.Apps[1].Running, second.Apps[1].Running, second.NowS)
	}
	if !reflect.DeepEqual(first, firstCopy) {
		t.Fatalf("a copy LastView returned after the first replan changed:\n%+v\nwant\n%+v", first, firstCopy)
	}
}

// viewRecorder plans like the heuristic and keeps a copy of every view it
// is handed. Being outside the sealed elision seam, it plans every replan
// fresh.
type viewRecorder struct{ views []View }

func (r *viewRecorder) Name() string { return "view-recorder" }

func (r *viewRecorder) Plan(v View) []Assignment {
	r.views = append(r.views, v.Clone())
	return heuristicPolicy.Plan(v)
}

func TestManagerRequirementChangeTriggersReplan(t *testing.T) {
	plat := hw.OdroidXU3()
	mgr := NewManager(Requirements{
		{"d", Requirement{MinAccuracy: 0.70, Priority: 1}},
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
	after := mgr.last
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
	plan := mgr.last
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
