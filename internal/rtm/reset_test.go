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
// pressured run — pressure outstanding, fault recoveries recorded and a
// logger set — must, once Reset, run the next scenario exactly as a new
// manager does.
func TestManagerResetMatchesNew(t *testing.T) {
	hot := dnn("d", "cpu-big", 4, 0.040)
	hot.Profile = perf.UniformProfile("hot", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	hot.ModelBytes = 12 << 20
	logged := 0
	m := NewManager(Requirements{{"d", Requirement{MaxLatencyS: 0.040, MinAccuracy: 0.70, Priority: 1}}})
	m.Logf = func(string, ...any) { logged++ }
	disturbedRun(t, m, hw.FlagshipSoC(), []sim.App{hot}, 62, "cpu-big", 8, 12, 16)
	if n, _ := m.Recoveries(); m.pressure == 0 || n == 0 || logged == 0 {
		t.Fatalf("first run left pressure %d, %d recoveries, %d log lines; want all non-zero",
			m.pressure, n, logged)
	}

	reqs := Requirements{
		{"dnn1", Requirement{MinAccuracy: 0.70, Priority: 1}},
		{"dnn2", Requirement{MinAccuracy: 0.70, Priority: 2}},
		{"dnn3", Requirement{Priority: 1}},
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
	freshN, freshTotalS := fresh.Recoveries()
	if fresh.PlanStats().Elided == 0 || freshN == 0 || fresh.pressure == 0 {
		t.Fatalf("second run too quiet to compare: %+v, %d recoveries, pressure %d",
			fresh.PlanStats(), freshN, fresh.pressure)
	}
	if !reflect.DeepEqual(m.last, fresh.last) {
		t.Errorf("last plan: reset %v, new %v", m.last, fresh.last)
	}
	if !reflect.DeepEqual(m.LastView(), fresh.LastView()) {
		t.Errorf("LastView differs: reset planned at %.3fs with margin %g, new at %.3fs with margin %g",
			m.LastView().NowS, m.LastView().MarginC, fresh.LastView().NowS, fresh.LastView().MarginC)
	}
	if m.Plans() != fresh.Plans() || m.PlanStats() != fresh.PlanStats() {
		t.Errorf("plans: reset %d %+v, new %d %+v", m.Plans(), m.PlanStats(), fresh.Plans(), fresh.PlanStats())
	}
	if n, totalS := m.Recoveries(); n != freshN || totalS != freshTotalS {
		t.Errorf("Recoveries: reset %d totalling %gs, new %d totalling %gs", n, totalS, freshN, freshTotalS)
	}
	if m.pressure != fresh.pressure {
		t.Errorf("pressure: reset %d, new %d", m.pressure, fresh.pressure)
	}
}
