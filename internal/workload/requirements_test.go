package workload

import (
	"reflect"
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// TestManagerRequirements pins what a requirement list means to the
// manager: a later entry for an app wins, an app not named gets defaults,
// SetRequirement replaces an entry or appends one, and the manager never
// writes to the caller's list, which a fleet workload's policy runs share.
func TestManagerRequirements(t *testing.T) {
	reqs := rtm.Requirements{
		{App: "a", Requirement: rtm.Requirement{MinAccuracy: 0.5, Priority: 1}},
		{App: "b", Requirement: rtm.Requirement{MaxLatencyS: 0.1, Priority: 2}},
		{App: "a", Requirement: rtm.Requirement{MinAccuracy: 0.6, Priority: 3}},
	}
	orig := slices.Clone(reqs)
	m := rtm.NewManager(reqs)
	check := func(app string, periodS float64, want rtm.Requirement) {
		t.Helper()
		if got := m.Requirement(app, periodS); got != want {
			t.Errorf("Requirement(%q, %g) = %+v, want %+v", app, periodS, got, want)
		}
	}

	check("a", 0.25, rtm.Requirement{MaxLatencyS: 0.25, MinAccuracy: 0.6, Priority: 3})
	check("b", 0.25, rtm.Requirement{MaxLatencyS: 0.1, Priority: 2})
	check("c", 0.5, rtm.Requirement{MaxLatencyS: 0.5})

	m.SetRequirement("a", rtm.Requirement{MinAccuracy: 0.7, Priority: 4})
	m.SetRequirement("c", rtm.Requirement{MaxLatencyS: 0.2, Priority: 5})
	check("a", 0.25, rtm.Requirement{MaxLatencyS: 0.25, MinAccuracy: 0.7, Priority: 4})
	check("b", 0.25, rtm.Requirement{MaxLatencyS: 0.1, Priority: 2})
	check("c", 0.5, rtm.Requirement{MaxLatencyS: 0.2, Priority: 5})
	if !slices.Equal(reqs, orig) {
		t.Errorf("SetRequirement wrote to the caller's list: %+v, was %+v", reqs, orig)
	}

	m.Reset(reqs)
	check("a", 0.25, rtm.Requirement{MaxLatencyS: 0.25, MinAccuracy: 0.6, Priority: 3})
	check("c", 0.5, rtm.Requirement{MaxLatencyS: 0.5})

	// Fig 2 lowers dnn2's accuracy floor mid-run. If that reached the
	// scenario's list, the second run would start from the lowered floor.
	s := Fig2Scenario()
	want := slices.Clone(s.Reqs)
	var st Stack
	var reps [2]sim.Report
	for i := range reps {
		_, _, rep, err := st.Run(&s, hw.FlagshipSoC(), 0.25)
		if err != nil {
			t.Fatal(err)
		}
		rep.Apps = slices.Clone(rep.Apps)
		rep.LatenciesNS = slices.Clone(rep.LatenciesNS)
		reps[i] = rep
	}
	if !slices.Equal(s.Reqs, want) {
		t.Errorf("running Fig 2 wrote to its requirements: %+v, was %+v", s.Reqs, want)
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("second Fig 2 run on one Stack differs from the first:\n%+v\n%+v", reps[0], reps[1])
	}
}
