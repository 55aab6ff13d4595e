package fleet

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
)

// TestEngineReuseEquivalence is the tentpole's correctness property at the
// fleet layer: a Runner whose workers reuse one Reset engine across their
// whole scenario stream must produce results byte-identical to running
// every scenario on a fresh engine — at workers 1 (the serial reuse path)
// and 8 (each worker's independent stream), across a random mix of
// platforms, classes and policies.
func TestEngineReuseEquivalence(t *testing.T) {
	cfg := GeneratorConfig{
		Seed:     97,
		Classes:  []Class{ClassSteady, ClassBursty, ClassThermal},
		Policies: []string{"heuristic", "minenergy"},
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(20))

	// Reference: every scenario on its own fresh engine (RunOne passes a
	// nil engine, so each call constructs from scratch).
	fresh := make([]Result, len(scens))
	for i, s := range scens {
		fresh[i] = RunOne(s)
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		r := &Runner{Workers: workers}
		got, err := json.Marshal(r.Run(scens))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: engine-reuse results differ from fresh-engine results", workers)
		}
	}
}

// injectedPlanner is a third-party policy instance handed to a scenario
// through Script.Planner: it plans through the public Plan contract, so it
// is outside replan elision and the manager's scratch planning path.
type injectedPlanner struct{ rtm.Policy }

func (injectedPlanner) Name() string { return "injected" }

// TestWorkerReuseEquivalence: a worker reuses its whole run stack —
// engine, manager, scenario controller and catalog platforms — across
// its scenario stream, and every run must still equal a run on freshly
// built parts, field by field with ==. The stream covers every class
// (faulty and thermal included), the three built-in policies, a learned
// table and an injected Planner, so any state one run leaves in a reused
// part shows up in a later run. After the stream, no run may have written
// to the worker's platforms.
func TestWorkerReuseEquivalence(t *testing.T) {
	table, _, err := Train(TrainConfig{Seed: 5, Workloads: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := table.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(GeneratorConfig{
		Seed:     23,
		Policies: []string{"heuristic", "maxaccuracy", "minenergy", "learned:" + path},
	})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(18))
	minEnergy, err := rtm.NewPolicy("minenergy")
	if err != nil {
		t.Fatal(err)
	}
	inj := scens[len(scens)/2]
	inj.Script.Planner = injectedPlanner{minEnergy}
	scens = append(scens[:len(scens)/2+1], append([]Scenario{inj}, scens[len(scens)/2+1:]...)...)
	seen := map[Class]bool{}
	for _, s := range scens {
		seen[s.Class] = true
	}
	for _, c := range AllClasses() {
		if !seen[c] {
			t.Fatalf("class %s not sampled; pick another seed", c)
		}
	}

	fresh := make([]Result, len(scens))
	for i, s := range scens {
		fresh[i] = RunOne(s)
	}
	check := func(pass string, got []Result) {
		t.Helper()
		for i := range got {
			if diff := resultDiff(got[i], fresh[i]); diff != "" {
				t.Errorf("%s: scenario %d (%s, %s): %s differs from a fresh run", pass, i, fresh[i].Name, fresh[i].Policy, diff)
			}
		}
	}
	check("Runner{Workers: 1}", (&Runner{Workers: 1}).Run(scens))

	// The same stream on one worker driven directly, so its cached
	// platforms can be inspected afterwards.
	w := &worker{}
	got := make([]Result, len(scens))
	for i, s := range scens {
		got[i] = runOne(&s, w, true)
	}
	check("worker", got)
	if len(w.plats) != len(hw.Catalog()) {
		t.Errorf("worker cached %d platforms, want every catalog platform (%d)", len(w.plats), len(hw.Catalog()))
	}
	for name, p := range w.plats {
		if !reflect.DeepEqual(p, hw.NewPlatform(name)) {
			t.Errorf("platform %s was modified by the runs that shared it", name)
		}
	}
}

// resultDiff names the first Result field in which got and want differ,
// comparing every field with == (Latencies run by run), or
// returns "".
func resultDiff(got, want Result) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if g, ok := gv.Field(i).Interface().([]LatencyRun); ok {
			if !slices.Equal(g, wv.Field(i).Interface().([]LatencyRun)) {
				return name
			}
			continue
		}
		if gv.Field(i).Interface() != wv.Field(i).Interface() {
			return name
		}
	}
	return ""
}

// TestRunnerProgressCoversDelivered pins the Progress/OnResult ordering
// contract: every Progress(done, total) call with OnResult set arrives
// strictly after the OnResult calls for indices [0, done), so done can be
// read as "results 0..done-1 are on disk". Run under -race this also
// proves the callbacks are serialized.
func TestRunnerProgressCoversDelivered(t *testing.T) {
	cfg := GeneratorConfig{Seed: 11, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(24))

	for _, workers := range []int{1, 8} {
		var mu sync.Mutex
		delivered := 0
		lastDone := 0
		r := &Runner{
			Workers: workers,
			OnResult: func(index int, _ Result) {
				mu.Lock()
				defer mu.Unlock()
				if index != delivered {
					t.Errorf("workers=%d: OnResult index %d, want %d (in-order delivery)", workers, index, delivered)
				}
				delivered++
			},
			Progress: func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if done > delivered {
					t.Errorf("workers=%d: Progress(done=%d) before OnResult delivered %d results", workers, done, delivered)
				}
				if done < lastDone {
					t.Errorf("workers=%d: Progress went backwards: %d after %d", workers, done, lastDone)
				}
				lastDone = done
				if total != len(scens) {
					t.Errorf("workers=%d: Progress total %d, want %d", workers, total, len(scens))
				}
			},
		}
		r.Run(scens)
		if delivered != len(scens) {
			t.Errorf("workers=%d: delivered %d of %d results", workers, delivered, len(scens))
		}
		if lastDone != len(scens) {
			t.Errorf("workers=%d: final Progress reported %d of %d", workers, lastDone, len(scens))
		}
	}
}
