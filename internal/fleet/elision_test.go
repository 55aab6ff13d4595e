package fleet

import (
	"encoding/json"
	"testing"
)

// TestReplanElisionEquivalence is replan elision's correctness property at
// the fleet layer: a Runner whose managers elide fingerprint-stable
// replans must produce results byte-identical to a Runner with
// DisablePlanCache — at workers 1 and 8, across a mix of platforms,
// classes and policies. The elision-on arm must also demonstrably skip
// work, or the test is vacuous.
func TestReplanElisionEquivalence(t *testing.T) {
	cfg := GeneratorConfig{
		Seed:     41,
		Classes:  []Class{ClassSteady, ClassBursty, ClassThermal},
		Policies: []string{"heuristic", "minenergy", "maxaccuracy"},
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(20))

	off := &Runner{Workers: 1, DisablePlanCache: true}
	want, err := json.Marshal(off.Run(scens))
	if err != nil {
		t.Fatal(err)
	}
	if s := off.PlanCacheStats(); s.Elided != 0 {
		t.Fatalf("DisablePlanCache runner reused planning work: %+v", s)
	}

	for _, workers := range []int{1, 8} {
		r := &Runner{Workers: workers}
		got, err := json.Marshal(r.Run(scens))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: elision-on results differ from elision-off results", workers)
		}
		s := r.PlanCacheStats()
		if s.Plans == 0 {
			t.Fatalf("workers=%d: no plans recorded", workers)
		}
		if s.Elided == 0 {
			t.Errorf("workers=%d: elision-on run elided nothing: %+v", workers, s)
		}
	}
}
