package workload

import (
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

func faultScenario() Scenario {
	prof := perf.MobileProfile()
	return Scenario{
		Name: "fault",
		Apps: []sim.App{
			{Name: "d1", Kind: sim.KindDNN, Profile: prof, Level: 1, PeriodS: 0.2,
				ModelBytes: 7 << 20, Placement: sim.Placement{Cluster: "a15", Cores: 4}},
			{Name: "d2", Kind: sim.KindDNN, Profile: prof, Level: 1, PeriodS: 0.5,
				ModelBytes: 7 << 20, Placement: sim.Placement{Cluster: "a7", Cores: 2}},
		},
		Reqs: map[string]rtm.Requirement{
			"d1": {Priority: 2},
			"d2": {Priority: 1},
		},
		Faults: []FaultWindow{{Cluster: "a15", FailS: 3, RepairS: 7}},
		EndS:   12,
	}
}

// Scenario fault windows become fail/repair transitions in the engine,
// applied alongside ordinary actions, and the manager rides through them.
func TestScenarioFaultWindowsApplied(t *testing.T) {
	s := faultScenario()
	var acted bool
	s.Actions = []Action{{AtS: 5, Name: "probe",
		Do: func(e *sim.Engine, m *rtm.Manager) { acted = true }}}
	e, _, rep, err := Run(s, hw.OdroidXU3(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d, want 1/1", rep.ClusterFails, rep.ClusterRepairs)
	}
	if !acted {
		t.Fatal("ordinary action was dropped when fault windows were present")
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("apps left unhosted after repair")
	}
	ci, err := e.Cluster("a15")
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Online {
		t.Fatal("a15 still offline after its repair window")
	}
	// Service continued: both apps kept completing frames (the d1 stream
	// alone releases ~60 over 12 s).
	total := 0
	for _, a := range rep.Apps {
		total += a.Completed
	}
	if total < 50 {
		t.Fatalf("completed %d frames across the fault window", total)
	}
}

// A never-repaired fault leaves the cluster dead to the end, with the
// survivors hosting every app.
func TestScenarioFaultWithoutRepair(t *testing.T) {
	s := faultScenario()
	s.Faults = []FaultWindow{{Cluster: "a15", FailS: 3}}
	e, _, rep, err := Run(s, hw.OdroidXU3(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 0 {
		t.Fatalf("fails=%d repairs=%d, want 1/0", rep.ClusterFails, rep.ClusterRepairs)
	}
	ci, err := e.Cluster("a15")
	if err != nil {
		t.Fatal(err)
	}
	if ci.Online {
		t.Fatal("a15 online despite no repair window")
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("apps stranded on the dead cluster while a7 is online")
	}
}

// Faulty runs are as deterministic as healthy ones: identical scenarios
// produce identical reports, including the fault-derived stats.
func TestFaultyRunDeterministic(t *testing.T) {
	_, _, rep1, err := Run(faultScenario(), hw.OdroidXU3(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rep2, err := Run(faultScenario(), hw.OdroidXU3(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("identical faulty scenarios diverged:\n%+v\n%+v", rep1, rep2)
	}
	if rep1.ClusterFails != 1 || rep1.ClusterRepairs != 1 {
		t.Fatal("fault window left no trace in the report")
	}
}
