package rtm

import (
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// disturbedRun runs apps on plat under mgr for endS simulated seconds: the
// ambient jumps to ambientC at 3 s, and cluster fails at failS and is
// repaired at repairS.
func disturbedRun(t *testing.T, mgr *Manager, plat *hw.Platform, apps []sim.App, ambientC float64, cluster string, failS, repairS, endS float64) {
	t.Helper()
	var warmed, failed, repaired bool
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !warmed && e.Now() >= 3 {
				warmed = true
				e.SetAmbient(ambientC)
			}
			if !failed && e.Now() >= failS {
				failed = true
				if err := e.SetClusterOnline(cluster, false); err != nil {
					t.Error(err)
				}
			}
			if failed && !repaired && e.Now() >= repairS {
				repaired = true
				if err := e.SetClusterOnline(cluster, true); err != nil {
					t.Error(err)
				}
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{Platform: plat, Apps: apps, Controller: ctrl, TickS: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(endS); err != nil {
		t.Fatal(err)
	}
}

// TestManagerResetMatchesNew: a manager left dirty by a faulty, thermally
// pressured run — pressure outstanding, fault recoveries recorded, a
// logger and a custom pressure step — must, once Reset,
// run the next scenario exactly as a new manager does.
func TestManagerResetMatchesNew(t *testing.T) {
	hot := dnn("d", "cpu-big", 4, 0.040)
	hot.Profile = perf.UniformProfile("hot", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	hot.ModelBytes = 12 << 20
	logged := 0
	m := NewManager(map[string]Requirement{"d": {MaxLatencyS: 0.040, MinAccuracy: 0.70, Priority: 1}})
	m.Logf = func(string, ...any) { logged++ }
	m.PressureStepC = 7
	disturbedRun(t, m, hw.FlagshipSoC(), []sim.App{hot}, 62, "cpu-big", 8, 12, 16)
	if m.Pressure() == 0 || len(m.FaultRecoveries()) == 0 || logged == 0 {
		t.Fatalf("first run left pressure %d, %d recoveries, %d log lines; want all non-zero",
			m.Pressure(), len(m.FaultRecoveries()), logged)
	}

	reqs := map[string]Requirement{
		"dnn1": {MinAccuracy: 0.70, Priority: 1},
		"dnn2": {MinAccuracy: 0.70, Priority: 2},
		"dnn3": {Priority: 1},
	}
	plat := hw.FlagshipSoC()
	second := func(mgr *Manager) {
		disturbedRun(t, mgr, plat, sim.BenchApps(), 62, "gpu", 5, 8, 12)
	}
	fresh := NewManager(reqs)
	second(fresh)
	m.Reset(reqs)
	logged = 0
	second(m)

	if logged != 0 || m.Logf != nil {
		t.Errorf("Reset kept the logger: %d lines logged in the second run", logged)
	}
	if fresh.PlanStats().Elided == 0 || len(fresh.FaultRecoveries()) == 0 || fresh.Pressure() == 0 {
		t.Fatalf("second run too quiet to compare: %+v, %d recoveries, pressure %d",
			fresh.PlanStats(), len(fresh.FaultRecoveries()), fresh.Pressure())
	}
	if !reflect.DeepEqual(m.LastPlan(), fresh.LastPlan()) {
		t.Errorf("LastPlan: reset %v, new %v", m.LastPlan(), fresh.LastPlan())
	}
	if !reflect.DeepEqual(m.LastView(), fresh.LastView()) {
		t.Errorf("LastView differs: reset planned at %.3fs with margin %g, new at %.3fs with margin %g",
			m.LastView().NowS, m.LastView().MarginC, fresh.LastView().NowS, fresh.LastView().MarginC)
	}
	if m.Plans() != fresh.Plans() || m.PlanStats() != fresh.PlanStats() {
		t.Errorf("plans: reset %d %+v, new %d %+v", m.Plans(), m.PlanStats(), fresh.Plans(), fresh.PlanStats())
	}
	if !reflect.DeepEqual(m.FaultRecoveries(), fresh.FaultRecoveries()) {
		t.Errorf("FaultRecoveries: reset %v, new %v", m.FaultRecoveries(), fresh.FaultRecoveries())
	}
	if m.Pressure() != fresh.Pressure() {
		t.Errorf("Pressure: reset %d, new %d", m.Pressure(), fresh.Pressure())
	}
}
