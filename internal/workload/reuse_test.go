package workload

import (
	"encoding/json"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// TestRunEngineReuseEquivalence: a run on a reused Stack, with the event
// log Run keeps, must reproduce Run's report and plan count byte-for-byte, scenario after
// scenario — the contract the fleet runner's per-worker stack reuse
// stands on, here exercised through the managed (controller-in-the-loop)
// path, across a platform switch mid-stream and with scripted actions.
func TestRunEngineReuseEquivalence(t *testing.T) {
	steps := []struct {
		s    Scenario
		plat func() *hw.Platform
	}{
		{Fig2Scenario(), hw.FlagshipSoC},
		{Fig5Scenario(perf.PaperReferenceProfile()), hw.OdroidXU3},
		{Fig2Scenario(), hw.FlagshipSoC},
	}

	var reused Stack
	for i, st := range steps {
		_, wantMgr, want, err := Run(st.s, st.plat(), 0.25, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		_, gotMgr, got, err := reused.run(&st.s, st.plat(), 0.25, nil, true)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		// Compare before the next iteration's Reset rewrites the event log
		// the report aliases.
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("scenario %d (%s): reused-stack report differs from fresh run", i, st.s.Name)
		}
		if gotMgr.Plans() != wantMgr.Plans() {
			t.Errorf("scenario %d (%s): reused-stack manager made %d plans, fresh %d", i, st.s.Name, gotMgr.Plans(), wantMgr.Plans())
		}
	}
}
