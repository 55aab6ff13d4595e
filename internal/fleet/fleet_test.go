package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestGeneratorDeterministic: the same seed must generate the same
// scenarios, and prefixes must be stable when the count grows.
func TestGeneratorDeterministic(t *testing.T) {
	gen1, err := NewGenerator(GeneratorConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := NewGenerator(GeneratorConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, b := gen1.Generate(16), gen2.Generate(32)
	for i := range a {
		if fingerprint(a[i]) != fingerprint(b[i]) {
			t.Errorf("scenario %d differs between n=16 and n=32 generations:\n%s\n%s",
				i, fingerprint(a[i]), fingerprint(b[i]))
		}
	}
}

// TestGenerateRangeConcurrent: one Generator serves concurrent
// GenerateRange calls over overlapping ranges, each equal to the
// sequential Generate, and the platform envelopes those calls share
// never leak into a scenario: writing to one scenario's profile levels
// leaves every other scenario, and later generations, as they were.
func TestGenerateRangeConcurrent(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 9, Policies: []string{"heuristic", "minenergy"}})
	if err != nil {
		t.Fatal(err)
	}
	want := withoutClosures(gen.Generate(96))
	ranges := [][2]int{{0, 64}, {16, 80}, {32, 96}, {8, 88}}
	got := make([][]Scenario, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = gen.GenerateRange(r[0], r[1])
		}()
	}
	wg.Wait()
	for i, r := range ranges {
		if !reflect.DeepEqual(withoutClosures(got[i]), want[r[0]:r[1]]) {
			t.Errorf("GenerateRange(%d, %d) run concurrently differs from Generate(96)[%d:%d]", r[0], r[1], r[0], r[1])
		}
	}

	// Scenarios 0 and 1 are one workload under two policies, so they
	// sample the same profile.
	a, b := got[0][0].Script.Apps[0].Profile, got[0][1].Script.Apps[0].Profile
	if a.Name != b.Name {
		t.Fatalf("scenarios 0 and 1 carry profiles %q and %q", a.Name, b.Name)
	}
	orig := b.Levels[0].Accuracy
	a.Levels[0].Accuracy = -1
	if b.Levels[0].Accuracy != orig {
		t.Error("writing scenario 0's profile levels changed scenario 1's")
	}
	if acc := gen.GenerateRange(0, 1)[0].Script.Apps[0].Profile.Levels[0].Accuracy; acc != orig {
		t.Errorf("writing a scenario's profile levels reached the generator: regenerated accuracy %g, want %g", acc, orig)
	}
}

// withoutClosures copies scenarios with their actions' Do closures
// cleared, since reflect.DeepEqual never equates non-nil funcs. Action
// names and times stay, and the fleet goldens cover what the closures do.
func withoutClosures(ss []Scenario) []Scenario {
	out := slices.Clone(ss)
	for i := range out {
		acts := slices.Clone(out[i].Script.Actions)
		for j := range acts {
			acts[j].Do = nil
		}
		out[i].Script.Actions = acts
	}
	return out
}

// TestGeneratorSeedsDiffer: distinct seeds must produce distinct scenario
// sets.
func TestGeneratorSeedsDiffer(t *testing.T) {
	gen1, err := NewGenerator(GeneratorConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := NewGenerator(GeneratorConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := gen1.Generate(16), gen2.Generate(16)
	same := true
	for i := range a {
		if fingerprint(a[i]) != fingerprint(b[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 generated identical 16-scenario sets")
	}
}

// fingerprint captures everything sampled into a scenario except action
// closures (represented by their names and times).
func fingerprint(s Scenario) string {
	out := fmt.Sprintf("%d/%d/%s/%s/end=%.9f", s.ID, s.Seed, s.Class, s.Platform, s.Script.EndS)
	for _, a := range s.Script.Apps {
		out += fmt.Sprintf("|app:%s,%v,%d,%.9f,%.3f,%s/%d,%.9f-%.9f",
			a.Name, a.Kind, a.Level, a.PeriodS, a.Util,
			a.Placement.Cluster, a.Placement.Cores, a.StartS, a.StopS)
	}
	names := make([]string, 0, len(s.Script.Reqs))
	for name := range s.Script.Reqs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.Script.Reqs[name]
		out += fmt.Sprintf("|req:%s,%.9f,%.9f,%d", name, r.MaxLatencyS, r.MinAccuracy, r.Priority)
	}
	for _, act := range s.Script.Actions {
		out += fmt.Sprintf("|act:%s@%.9f", act.Name, act.AtS)
	}
	return out
}

// TestRunDeterministicAcrossWorkers is the harness's core contract: the
// same seed must produce an identical aggregate report with workers=1 and
// workers=8. Compared via JSON so every exported field participates.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 scenarios")
	}
	const n, seed = 24, 7
	gen, err := NewGenerator(GeneratorConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(n)

	serial := (&Runner{Workers: 1}).Run(scens)
	parallel := (&Runner{Workers: 8}).Run(scens)

	js, err := json.Marshal(Aggregate(seed, serial))
	if err != nil {
		t.Fatal(err)
	}
	jp, err := json.Marshal(Aggregate(seed, parallel))
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(jp) {
		t.Fatalf("aggregate differs between workers=1 and workers=8:\n%s\n%s", js, jp)
	}
	for i := range serial {
		if serial[i].Err != "" {
			t.Errorf("scenario %d (%s): %s", i, serial[i].Name, serial[i].Err)
		}
	}
}

// TestRunOnePure: running the same scenario twice must give identical
// results (no hidden shared state in the engine/manager stack).
func TestRunOnePure(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.Generate(5) {
		a, b := RunOne(s), RunOne(s)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("scenario %s not reproducible:\n%s\n%s", s.Script.Name, ja, jb)
		}
	}
}

// TestAggregateGroups: group membership must match the scenario labels and
// the overall frame count must equal the per-platform sum.
func TestAggregateGroups(t *testing.T) {
	rep, results, err := Run(GeneratorConfig{Seed: 11}, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Scenarios != 12 {
		t.Fatalf("overall scenarios = %d, want 12", rep.Overall.Scenarios)
	}
	if got := len(results); got != 12 {
		t.Fatalf("results = %d, want 12", got)
	}
	platFrames, platScen := 0, 0
	for _, g := range rep.ByPlatform {
		platFrames += g.Frames
		platScen += g.Scenarios
	}
	if platFrames != rep.Overall.Frames || platScen != 12 {
		t.Errorf("platform breakdown frames=%d scen=%d, want %d/12", platFrames, platScen, rep.Overall.Frames)
	}
	classScen := 0
	for _, g := range rep.ByClass {
		classScen += g.Scenarios
	}
	if classScen != 12 {
		t.Errorf("class breakdown scenarios=%d, want 12", classScen)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("scenario %s failed: %s", r.Name, r.Err)
		}
		if r.Released == 0 {
			t.Errorf("scenario %s released no frames", r.Name)
		}
	}
}

// TestGeneratorRejectsBadConfig covers validation paths.
func TestGeneratorRejectsBadConfig(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{Platforms: []string{"no-such-board"}}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, _, err := Run(GeneratorConfig{}, 0, 1); err == nil {
		t.Error("zero scenario count accepted")
	}
}

// TestResolvePolicies pins the policy-list contract, in particular the
// duplicate rejection that `fleetsim -policies heuristic,heuristic` must
// hit: running the same strategy twice would silently skew every
// per-policy aggregate, so it is an error, not a dedup.
func TestResolvePolicies(t *testing.T) {
	cases := []struct {
		name    string
		in      []string
		want    []string
		wantErr string
	}{
		{name: "empty list gets the default", in: nil, want: []string{"heuristic"}},
		{name: "valid list keeps order", in: []string{"minenergy", "heuristic"}, want: []string{"minenergy", "heuristic"}},
		{name: "blank resolves to the default", in: []string{""}, want: []string{"heuristic"}},
		{name: "explicit duplicate rejected", in: []string{"heuristic", "heuristic"}, wantErr: `fleet: policy "heuristic" listed twice`},
		{name: "blank colliding with explicit default rejected", in: []string{"", "heuristic"}, wantErr: `fleet: policy "heuristic" listed twice`},
		{name: "unknown policy rejected", in: []string{"no-such-policy"}, wantErr: "no-such-policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := resolvePolicies(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("resolvePolicies(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
	// The same rejection must surface through the generator, which is the
	// path the fleetsim CLI takes.
	if _, err := NewGenerator(GeneratorConfig{Policies: []string{"heuristic", "heuristic"}}); err == nil {
		t.Error("generator accepted a duplicated policy list")
	}
}

// percentile returns the p-quantile (nearest-rank) of the samples by
// sorting a copy. It is the test reference: production code selects the
// same rank in place through percentileSelect.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)]
}

// TestPercentile pins the nearest-rank convention.
func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	if got := percentile(samples, 0.95); got != 5 {
		t.Errorf("p95 of 1..5 = %g, want 5", got)
	}
	if got := percentile(samples, 0.5); got != 3 {
		t.Errorf("p50 of 1..5 = %g, want 3", got)
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("p95 of empty = %g, want 0", got)
	}
	// The input must not be reordered.
	if samples[0] != 5 {
		t.Error("percentile mutated its input")
	}
}
