package workload

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

func TestMobileProfileShape(t *testing.T) {
	p := perf.MobileProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MaxLevel() != 4 {
		t.Fatalf("levels = %d", p.MaxLevel())
	}
	if p.Level(4).MACs != 7_000_000 {
		t.Fatalf("full MACs = %d", p.Level(4).MACs)
	}
	if p.Level(1).Accuracy >= p.Level(4).Accuracy {
		t.Fatal("accuracy must rise with level")
	}
}

func TestScenarioControllerAppliesActionsInOrder(t *testing.T) {
	var order []string
	actions := []Action{
		{AtS: 2, Name: "b", Do: func(e *sim.Engine, m *rtm.Manager) { order = append(order, "b") }},
		{AtS: 1, Name: "a", Do: func(e *sim.Engine, m *rtm.Manager) { order = append(order, "a") }},
	}
	ctrl := NewScenarioController(nil, actions)
	e, err := sim.New(sim.Config{
		Platform: hw.OdroidXU3(),
		Apps: []sim.App{{Name: "bg", Kind: sim.KindBackground, Util: 0.1,
			Placement: sim.Placement{Cluster: "a7", Cores: 1}}},
		Controller: ctrl,
		TickS:      0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("actions ran %v, want [a b]", order)
	}
}

// E3 golden-shape test: the full Fig 2 timeline. Every phase transition of
// the paper's narrative must appear, and overall quality of service must
// hold (small miss/drop fractions, no critical thermal violation).
func TestFig2ScenarioReproducesPaperTimeline(t *testing.T) {
	s := Fig2Scenario()
	e, mgr, rep, err := Run(s, hw.FlagshipSoC(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Final state (phase d): both DNNs co-located on the NPU, compressed.
	d1, _ := e.App("dnn1")
	d2, _ := e.App("dnn2")
	if d1.Placement.Cluster != "npu" || d2.Placement.Cluster != "npu" {
		t.Fatalf("phase (d): dnn1 on %s, dnn2 on %s, want both on npu",
			d1.Placement.Cluster, d2.Placement.Cluster)
	}
	if d1.Level >= 4 || d2.Level >= 3 {
		t.Fatalf("phase (d): levels %d/%d, want both compressed", d1.Level, d2.Level)
	}

	// Phase transitions via the migration log.
	type mig struct {
		t    float64
		app  string
		note string
	}
	var migs []mig
	sawAlarm := false
	for _, ev := range rep.Events {
		switch ev.Kind {
		case sim.EvMigrated:
			migs = append(migs, mig{ev.TimeS, ev.App, ev.Detail()})
		case sim.EvThermalAlarm:
			sawAlarm = true
		}
	}
	expect := []struct {
		app      string
		contains string
		loS, hiS float64
	}{
		{"dnn1", "npu -> gpu", 4.9, 6},       // (b) DNN2 claims NPU, DNN1 to GPU
		{"dnn2", "-> npu", 4.9, 6},           // (b)
		{"dnn1", "gpu -> cpu-big", 14.9, 16}, // (c) AR/VR takes the GPU
		{"dnn1", "-> npu", 24.9, 26},         // (d) co-location
	}
	for _, want := range expect {
		found := false
		for _, m := range migs {
			if m.app == want.app && m.t >= want.loS && m.t <= want.hiS &&
				contains(m.note, want.contains) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("missing migration %q for %s in [%.1f,%.1f]; got %v",
				want.contains, want.app, want.loS, want.hiS, migs)
		}
	}

	// (c) thermal: the hot environment must trip the alarm before t=25 and
	// the manager must shed DNN1 off the big cluster.
	if !sawAlarm {
		t.Fatalf("no thermal alarm fired (maxT %.1f)", rep.MaxTempC)
	}
	shed := false
	for _, m := range migs {
		if m.app == "dnn1" && m.t > 18 && m.t < 25 && contains(m.note, "cpu-big ->") {
			shed = true
		}
	}
	if !shed {
		t.Fatalf("dnn1 was not shed off cpu-big after the thermal alarm; migrations %v", migs)
	}
	if rep.MaxTempC >= e.Platform().Thermal.CriticalC {
		t.Fatalf("max temp %.1f reached critical", rep.MaxTempC)
	}
	if rep.OverThrottleS > 1.5 {
		t.Fatalf("spent %.2fs above throttle; manager too slow", rep.OverThrottleS)
	}

	// Quality of service: both DNNs complete the overwhelming majority of
	// frames (migration downtimes cost a handful).
	for _, a := range []sim.AppInfo{d1, d2} {
		bad := float64(a.Missed+a.Dropped) / float64(a.Released)
		if bad > 0.15 {
			t.Fatalf("%s miss+drop fraction %.2f too high", a.Name, bad)
		}
	}
	if mgr.Plans() < 4 {
		t.Fatalf("manager planned only %d times", mgr.Plans())
	}
}

// The no-RTM baseline on the same scenario must do strictly worse: with a
// static mapping and a plain governor, DNN1 never fits its budget once the
// GPU is taken, and nothing resolves the NPU memory conflict.
func TestFig2BaselineWithoutRTMDegrades(t *testing.T) {
	s := Fig2Scenario()
	gov := rtm.NewGovernorController()
	e, err := sim.New(sim.Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       s.Apps,
		Controller: gov,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(s.EndS); err != nil {
		t.Fatal(err)
	}
	d2, _ := e.App("dnn2")
	// DNN2 stays where it started (cpu-big), which cannot hold 60 fps for
	// the 100% mobile model: overwhelming misses.
	if d2.Placement.Cluster != "cpu-big" {
		t.Fatalf("baseline moved dnn2 to %s; governors must not migrate", d2.Placement.Cluster)
	}
	bad := float64(d2.Missed+d2.Dropped) / float64(d2.Released)
	if bad < 0.5 {
		t.Fatalf("baseline dnn2 miss+drop fraction %.2f suspiciously low", bad)
	}
}

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestFig5ScenarioHoldsBudgetThroughDisturbance(t *testing.T) {
	// The Fig 5 loop runs on the XU3, so it uses the XU3-calibrated
	// reference profile: the 100% model at a 250 ms budget is feasible on
	// the A15 but not once the burst takes 3 of its cores — the manager
	// must shrink the model or move it to the A7.
	s := Fig5Scenario(perf.PaperReferenceProfile())
	e, _, rep, err := Run(s, hw.OdroidXU3(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := e.App("dnn")
	bad := float64(d.Missed+d.Dropped) / float64(d.Released)
	if bad > 0.2 {
		t.Fatalf("manager failed to hold the budget through the burst: %.2f bad frames", bad)
	}
	if rep.MaxTempC >= e.Platform().Thermal.CriticalC {
		t.Fatalf("max temp %.1f reached critical", rep.MaxTempC)
	}
}
