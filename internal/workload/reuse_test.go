package workload

import (
	"encoding/json"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// TestRunEngineReuseEquivalence: RunEngineOpts on a reused engine must
// reproduce Run's report byte-for-byte, scenario after scenario — the
// contract the fleet runner's per-worker engine reuse stands on, here
// exercised through the managed (controller-in-the-loop) path and across
// a platform switch mid-stream.
func TestRunEngineReuseEquivalence(t *testing.T) {
	steps := []struct {
		s    Scenario
		plat func() *hw.Platform
	}{
		{Fig2Scenario(), hw.FlagshipSoC},
		{Fig5Scenario(perf.PaperReferenceProfile()), hw.OdroidXU3},
		{Fig2Scenario(), hw.FlagshipSoC},
	}

	var reused *sim.Engine
	for i, st := range steps {
		_, _, want, err := Run(st.s, st.plat(), 0.25, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		eng, _, got, err := RunEngineOpts(reused, st.s, st.plat(), 0.25, nil, RunOptions{})
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
			t.Errorf("scenario %d (%s): reused-engine report differs from fresh run", i, st.s.Name)
		}
		reused = eng
	}
}
