package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
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
// sequential Generate. Under two and three policies, ranges start at
// every run of a workload, so a range's first run is sometimes a later
// policy run of its workload, which the range samples afresh.
func TestGenerateRangeConcurrent(t *testing.T) {
	for _, pols := range [][]string{{"heuristic", "minenergy"}, {"heuristic", "maxaccuracy", "minenergy"}} {
		gen, err := NewGenerator(GeneratorConfig{Seed: 9, Policies: pols})
		if err != nil {
			t.Fatal(err)
		}
		want := withoutClosures(gen.Generate(96))
		ranges := [][2]int{{0, 64}, {16, 80}, {32, 96}, {8, 88}, {1, 65}, {17, 96}, {31, 32}, {5, 7}, {95, 96}}
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
				t.Errorf("%d policies: GenerateRange(%d, %d) run concurrently differs from Generate(96)[%d:%d]",
					len(pols), r[0], r[1], r[0], r[1])
			}
		}
	}
}

// TestGeneratedScenariosReadOnly: a workload's policy runs share one
// script body, and every scenario shares its platform's profile levels
// with its Generator, so whatever runs generated scenarios must only read
// them. A 3-policy range over every class and platform, starting at a
// workload's last policy run, runs through Runner at 1 and 4 workers and
// through Train's loop; a shard resume then generates and runs a range of
// its own from the same Generator. Afterwards the range, and a later
// generation from that Generator, must equal a fresh Generator's.
func TestGeneratedScenariosReadOnly(t *testing.T) {
	cfg := GeneratorConfig{Seed: 9, Policies: []string{"heuristic", "maxaccuracy", "minenergy"}}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workloads = 31
	lo, hi := 2, gen.RunCount(workloads)
	got := gen.GenerateRange(lo, hi)
	classes, plats := map[Class]bool{}, map[string]bool{}
	for _, s := range got {
		classes[s.Class], plats[s.Platform] = true, true
	}
	if len(classes) != len(AllClasses()) || len(plats) != len(hw.Catalog()) {
		t.Fatalf("the range covers %d classes and %d platforms; want all %d and %d",
			len(classes), len(plats), len(AllClasses()), len(hw.Catalog()))
	}

	if !reflect.DeepEqual((&Runner{Workers: 1}).Run(got), (&Runner{Workers: 4}).Run(got)) {
		t.Error("runs of shared scenarios differ between 1 and 4 workers")
	}
	if _, _, err := train(TrainConfig{Seed: 9, Workers: 4, Epochs: 1, Epsilon: 0.5}.applied(), got); err != nil {
		t.Fatal(err)
	}
	_, shard, err := newShard(cfg, workloads, 1, 2)
	if err != nil || shard.Lo%len(cfg.Policies) == 0 {
		t.Fatalf("shard 2/2 starts at run %d (error %v); want a start mid-workload", shard.Lo, err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "shard.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := (&Runner{Workers: 4}).resume(f, gen, shard.StreamHeader); err != nil {
		t.Fatal(err)
	}

	want := withoutClosures(fresh.GenerateRange(lo, hi))
	if !reflect.DeepEqual(withoutClosures(got), want) {
		t.Error("running generated scenarios wrote to them")
	}
	if !reflect.DeepEqual(withoutClosures(gen.GenerateRange(lo, hi)), want) {
		t.Error("running generated scenarios wrote to their Generator: a later generation differs")
	}
}

// FuzzGenerate: every GeneratorConfig either fails in NewGenerator or
// samples scenarios that sim.New accepts, and running a short range of
// them leaves it equal to a fresh generation. The three strings are
// comma-separated platform, class and policy names ("" leaves the list
// unset); a learned-table policy names a file that does not exist, so no
// input makes the test read a file.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), "", "", "")
	f.Add(uint64(2), "odroid-xu3,jetson-nano", "steady,faulty,thermal", "heuristic,maxaccuracy,minenergy")
	f.Add(uint64(3), "flagship-soc", "churn,bursty,mixed", "minenergy,")
	f.Add(uint64(4), "bogus", "", "")
	f.Add(uint64(5), "", "calm", "")
	f.Add(uint64(6), "", "", "heuristic,heuristic")
	f.Add(uint64(7), "", "", "learned:table.json")
	names := func(list string) []string {
		if list == "" {
			return nil
		}
		return strings.Split(list, ",")
	}
	f.Fuzz(func(t *testing.T, seed uint64, plats, classes, pols string) {
		cfg := GeneratorConfig{Seed: seed, Platforms: names(plats), Policies: names(pols)}
		for _, c := range names(classes) {
			cfg.Classes = append(cfg.Classes, Class(c))
		}
		for i, p := range cfg.Policies {
			if strings.HasPrefix(p, rtm.LearnedParamPrefix+":") {
				cfg.Policies[i] = rtm.LearnedParamPrefix + ":" + filepath.Join(t.TempDir(), "absent.json")
			}
		}
		gen, err := NewGenerator(cfg)
		if err != nil {
			return
		}
		fresh, err := NewGenerator(cfg)
		if err != nil {
			t.Fatalf("NewGenerator accepted the config once, then refused it: %v", err)
		}
		lo := int(seed % 16)
		got := gen.GenerateRange(lo, lo+4)
		for _, s := range got {
			if _, err := sim.New(sim.Config{Platform: hw.NewPlatform(s.Platform), Apps: s.Script.Apps}); err != nil {
				t.Fatalf("run %d (%s): %v", s.ID, s.Script.Name, err)
			}
			// Reqs names every DNN once, in Apps order, and nothing else.
			var dnns, named []string
			for _, a := range s.Script.Apps {
				if a.Kind == sim.KindDNN {
					dnns = append(dnns, a.Name)
				}
			}
			for _, r := range s.Script.Reqs {
				named = append(named, r.App)
			}
			if !slices.Equal(named, dnns) {
				t.Fatalf("run %d (%s): requirements name %v, DNNs are %v", s.ID, s.Script.Name, named, dnns)
			}
		}
		for _, r := range (&Runner{Workers: 1}).Run(got) {
			if r.Err != "" {
				t.Fatalf("run %d (%s): %s", r.ID, r.Name, r.Err)
			}
		}
		if !reflect.DeepEqual(withoutClosures(got), withoutClosures(fresh.GenerateRange(lo, lo+4))) {
			t.Fatal("running a generated range wrote to it")
		}
	})
}

// TestWorkloadName: workloadName spells what fmt.Sprintf("%s-%s-%04d")
// does, below and beyond four digits.
func TestWorkloadName(t *testing.T) {
	for _, wl := range []int{0, 7, 42, 999, 1000, 9999, 10000, 123456} {
		want := fmt.Sprintf("%s-%s-%04d", ClassBursty, "jetson-nano", wl)
		if got := workloadName(ClassBursty, "jetson-nano", wl); got != want {
			t.Errorf("workloadName(%d) = %q, want %q", wl, got, want)
		}
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
	for _, r := range s.Script.Reqs {
		out += fmt.Sprintf("|req:%s,%.9f,%.9f,%d", r.App, r.MaxLatencyS, r.MinAccuracy, r.Priority)
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

// TestLatenciesIndependentOfClockOffset: a run's latency runs do not
// depend on where on the simulated clock its frames ran. Every app's start
// and the end move by a whole number of ticks, which keeps the manager's
// tick and the thermal steps in phase; on a die that stays below its
// throttle point the same jobs then run the same way, and only the last
// bits of the engine's float latencies move, which whole nanoseconds
// absorb. Every count must match too. Runs that miss or drop a frame are
// left out: whether a frame is dropped can turn on a release and a
// completion at one instant, which the engine's float clock orders by
// those same last bits.
func TestLatenciesIndependentOfClockOffset(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{
		Seed:      3,
		Platforms: []string{"odroid-xu3", "jetson-nano"},
		Classes:   []Class{ClassSteady},
		Policies:  []string{"heuristic", "maxaccuracy", "minenergy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shift := func(s Scenario, offset float64) Scenario {
		s.Script.Apps = slices.Clone(s.Script.Apps)
		for i := range s.Script.Apps {
			s.Script.Apps[i].StartS += offset
		}
		s.Script.EndS += offset
		return s
	}
	checked := 0
	for _, s := range gen.Generate(gen.RunCount(8)) {
		// The manager's first tick replans whatever runs then, and it
		// holds miss-driven replans back for their backoff from t=0. The
		// reference run starts its apps after both, as the shifted ones do.
		s = shift(s, 8*TickS)
		a := RunOne(s)
		if a.Missed+a.Dropped > 0 {
			continue
		}
		checked++
		for _, offset := range []float64{10 * TickS, 37 * TickS} {
			b := RunOne(shift(s, offset))
			if trip := hw.NewPlatform(s.Platform).Thermal.ThrottleC; a.MaxTempC >= trip || b.MaxTempC >= trip {
				t.Fatalf("%s: die reached %.1f/%.1f °C, throttle %.1f °C; the test needs a cool die", s.Script.Name, a.MaxTempC, b.MaxTempC, trip)
			}
			if len(a.Latencies) == 0 {
				t.Fatalf("%s: no latencies", s.Script.Name)
			}
			if !slices.Equal(a.Latencies, b.Latencies) {
				t.Errorf("%s shifted by %gs: latency runs differ:\n%v\n%v", s.Script.Name, offset, a.Latencies, b.Latencies)
			}
			stats := func(r Result) [3]float64 { return [3]float64{r.MeanLatencyS, r.P95LatencyS, r.MaxLatencyS} }
			if stats(a) != stats(b) {
				t.Errorf("%s shifted by %gs: mean/p95/max %v, unshifted %v", s.Script.Name, offset, stats(b), stats(a))
			}
			counts := func(r Result) [8]int {
				return [8]int{r.Released, r.Completed, r.Missed, r.Dropped, r.Plans, r.Migrations, r.LevelSwaps, r.OPPSwitches}
			}
			if counts(a) != counts(b) {
				t.Errorf("%s shifted by %gs: counts %v, unshifted %v", s.Script.Name, offset, counts(b), counts(a))
			}
		}
	}
	if checked < 8 {
		t.Fatalf("only %d runs kept every frame; the test needs at least 8", checked)
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
	// 2^62 workloads under two policies are 2^63 runs, one more than an
	// int holds; unchecked, the count wraps negative to an empty fleet.
	two := GeneratorConfig{Policies: []string{"heuristic", "minenergy"}}
	if rep, _, err := Run(two, 1<<62, 1); err == nil {
		t.Errorf("overflowing run count accepted: %d-scenario report", rep.Overall.Scenarios)
	}
	gen, err := NewGenerator(two)
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := gen.Runs(1<<62 - 1); err != nil || runs != 1<<63-2 {
		t.Errorf("Runs(2^62-1) = %d, %v; want 2^63-2", runs, err)
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
// same rank across a group's ascending runs through percentileRuns.
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
