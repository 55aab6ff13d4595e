package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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
		Reqs: rtm.Requirements{
			{App: "d1", Requirement: rtm.Requirement{Priority: 2}},
			{App: "d2", Requirement: rtm.Requirement{Priority: 1}},
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

// TestFaultTransitionOrder pins the order in which a tick applies what is
// due: the scripted actions first, then the fault transitions in a stable
// time order of each window's fail followed by its repair, windows in
// order. So at t=2 the probe runs while a7 is still down, then window 0
// repairs a7 before window 1 fails a15; a window that fails and repairs
// at one instant ends online.
func TestFaultTransitionOrder(t *testing.T) {
	s := faultScenario()
	s.Faults = []FaultWindow{
		{Cluster: "a7", FailS: 1, RepairS: 2},
		{Cluster: "a15", FailS: 2, RepairS: 4},
		{Cluster: "a7", FailS: 3, RepairS: 3},
	}
	var seen []string
	probe := func(e *sim.Engine, m *rtm.Manager) {
		for _, cl := range []string{"a7", "a15"} {
			ci, err := e.Cluster(cl)
			if err != nil {
				t.Fatal(err)
			}
			seen = append(seen, fmt.Sprintf("t=%g %s online=%v", e.Now(), cl, ci.Online))
		}
	}
	s.Actions = []Action{{AtS: 3, Do: probe}, {AtS: 2, Do: probe}}
	e, _, rep, err := Run(s, hw.OdroidXU3(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"t=2 a7 online=false", "t=2 a15 online=true",
		"t=3 a7 online=true", "t=3 a15 online=false",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("actions saw %q, want %q", seen, want)
	}
	var got []string
	for _, ev := range rep.Events {
		if ev.Kind == sim.EvClusterFail || ev.Kind == sim.EvClusterRepair {
			got = append(got, fmt.Sprintf("t=%g %s %s", ev.TimeS, ev.Kind, ev.Cluster))
		}
	}
	want = []string{
		"t=1 cluster-fail a7", "t=2 cluster-repair a7", "t=2 cluster-fail a15",
		"t=3 cluster-fail a7", "t=3 cluster-repair a7", "t=4 cluster-repair a15",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transitions %q, want %q", got, want)
	}
	if ci, _ := e.Cluster("a7"); !ci.Online {
		t.Error("a7 offline after a window that failed and repaired at one instant")
	}
}

// TestBadScriptRefused holds Stack.run to refusing, before it simulates, a
// script whose steps could not apply as written: an action or fault
// transition time that is not finite, or a fault window on a cluster the
// platform lacks. Each error names the offending step. A nil platform is
// left to sim.Reset.
func TestBadScriptRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	act := func(e *sim.Engine, m *rtm.Manager) { t.Error("an action of a refused script ran") }
	for _, tc := range []struct {
		name    string
		actions []Action
		faults  []FaultWindow
		want    string
	}{
		{"nan action", []Action{{AtS: 1, Do: act}, {AtS: nan, Name: "late", Do: act}}, nil, `action 1 ("late") at NaN s`},
		{"inf action", []Action{{AtS: -inf, Name: "early", Do: act}}, nil, `action 0 ("early") at -Inf s`},
		{"nan repair", nil, []FaultWindow{{Cluster: "a15", FailS: 3, RepairS: nan}}, `fault window 0 on "a15": fail 3 s and repair NaN s`},
		{"inf fail", nil, []FaultWindow{{Cluster: "a15", FailS: 3, RepairS: 7}, {Cluster: "a7", FailS: inf}}, `fault window 1 on "a7": fail +Inf s`},
		{"unknown cluster", nil, []FaultWindow{{Cluster: "npu", FailS: 3, RepairS: 7}}, `fault window 0 names cluster "npu", which odroid-xu3 lacks`},
	} {
		s := faultScenario()
		s.Actions, s.Faults = tc.actions, tc.faults
		_, _, _, err := Run(s, hw.OdroidXU3(), 0.25, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, _, _, err2 := new(Stack).Run(&s, hw.OdroidXU3(), 0.25); err2 == nil || err2.Error() != err.Error() {
			t.Errorf("%s: Stack.Run err %v, Run err %v", tc.name, err2, err)
		}
	}
	s := faultScenario()
	s.Faults = []FaultWindow{{Cluster: "npu", FailS: 3}}
	if _, _, _, err := Run(s, nil, 0.25, nil); err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
		t.Errorf("nil platform: err %v, want sim.Reset's", err)
	}
}
