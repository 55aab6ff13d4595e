package fleet

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// unsealed hides a policy behind the public Policy contract: the struct
// promotes only Name and Plan, so rtm's sealed seams (elision and the
// scratch planner) are out of reach and every replan plans fresh through
// Plan. It is the elision-off reference.
type unsealed struct{ rtm.Policy }

// plannedFresh returns copies of scens whose policies are wrapped in
// unsealed, so every replan of a run over them plans fresh.
func plannedFresh(t *testing.T, scens []Scenario) []Scenario {
	t.Helper()
	ref := make([]Scenario, len(scens))
	for i, s := range scens {
		pol, err := rtm.NewPolicy(s.Script.Policy)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = s
		ref[i].Script.Planner = unsealed{pol}
	}
	return ref
}

// TestReplanElisionEquivalence is replan elision's correctness property at
// the fleet layer: a Runner whose managers elide fingerprint-stable
// replans must produce results byte-identical to the same scenarios
// planned fresh by unsealed policies — at workers 1 and 8, across every
// class (faulty fail/repair cycles included), the three built-ins and a
// learned table, whose elision key folds in the thermal and slack buckets
// it reads. The elision-on arm must also demonstrably skip work, or the
// test is vacuous.
func TestReplanElisionEquivalence(t *testing.T) {
	table, _, err := Train(TrainConfig{Seed: 7, Workloads: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := table.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(GeneratorConfig{
		Seed:     11,
		Classes:  AllClasses(),
		Policies: []string{"heuristic", "maxaccuracy", "minenergy", "learned:" + path},
	})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(48))
	seen := map[Class]bool{}
	for _, s := range scens {
		seen[s.Class] = true
	}
	for _, c := range AllClasses() {
		if !seen[c] {
			t.Fatalf("class %s not sampled; pick another seed", c)
		}
	}

	off := (&Runner{Workers: 1}).Run(plannedFresh(t, scens))
	if Aggregate(11, off).Overall.ClusterFails == 0 {
		t.Fatal("faulty scenarios recorded no cluster failures")
	}
	want, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := json.Marshal((&Runner{Workers: workers}).Run(scens))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: elision-on results differ from fresh-planning results", workers)
		}
	}

	var st workload.Stack
	elided := 0
	for _, s := range scens {
		_, mgr, _, err := workload.RunEngineOpts(&st, s.Script, hw.NewPlatform(s.Platform), TickS, nil, workload.RunOptions{LatenciesOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		elided += mgr.PlanStats().Elided
	}
	if elided == 0 {
		t.Error("elision-on fleet elided no replans")
	}
}
