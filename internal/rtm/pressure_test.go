package rtm

import (
	"encoding/json"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// pressureRun is a managed flagship run whose die climbs past the
// throttle point while nothing the plan epoch tracks moves: the render
// app holds the GPU at its top OPP whatever the budget, at a 46 °C
// ambient. maxaccuracy clocks as fast as the thermal budget allows, so
// the pressure an alarm adds lowers its clocks. quiet counts the alarms
// that arrived with the epoch where the last controller callback left it
// and elision armed, and whose replan then moved the epoch: replans that
// only the pressure term of the fingerprint tells apart from the last.
func pressureRun(t *testing.T, pol Policy) (rep sim.Report, quiet int) {
	t.Helper()
	prof := perf.UniformProfile("pressure", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	plat := hw.FlagshipSoC()
	plat.AmbientC = 46
	apps := []sim.App{
		{Name: "dnn1", Kind: sim.KindDNN, Profile: prof, Level: 4, PeriodS: 0.040, ModelBytes: 7 << 20,
			Placement: sim.Placement{Cluster: "npu"}},
		{Name: "dnn2", Kind: sim.KindDNN, Profile: prof, Level: 4, PeriodS: 1.0 / 30, ModelBytes: 7 << 20,
			Placement: sim.Placement{Cluster: "cpu-big", Cores: 4}},
		{Name: "vr", Kind: sim.KindRender, Util: 0.9, Placement: sim.Placement{Cluster: "gpu"}},
	}
	mgr := NewManager(nil)
	mgr.SetPolicy(pol)
	var epoch uint64
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			mgr.OnTick(e)
			epoch = e.PlanEpoch()
		},
		event: func(e *sim.Engine, ev sim.Event) {
			armed := ev.Kind == sim.EvThermalAlarm && e.PlanEpoch() == epoch && mgr.lastFPOK
			mgr.OnEvent(e, ev)
			if armed && e.PlanEpoch() != epoch {
				quiet++
			}
			epoch = e.PlanEpoch()
		},
	}
	e, err := sim.New(sim.Config{Platform: plat, Apps: apps, Controller: ctrl, TickS: 0.25, LogEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	return e.Report(), quiet
}

// TestPressureKeysElision: a thermal alarm raises the manager's pressure
// without moving the plan epoch, and the tighter budget changes the plan.
// Elision must see the pressure step, so the run must report exactly what
// planning every replan fresh reports. Leaving pressure out of
// planFingerprint elides the alarm's replan and fails both checks.
func TestPressureKeysElision(t *testing.T) {
	mk := testPolicies(t)["maxaccuracy"]
	repFresh, _ := pressureRun(t, unsealed{mk()})
	rep, quiet := pressureRun(t, mk())
	if quiet == 0 {
		t.Fatal("no thermal alarm replanned to a new plan from an unmoved epoch; the run no longer tests pressure")
	}
	fresh, err := json.Marshal(repFresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(fresh) {
		t.Fatal("report with elision differs from planning every replan fresh")
	}
}
