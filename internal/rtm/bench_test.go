package rtm

import (
	"flag"
	"fmt"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// benchView builds a realistic planning input: the flagship SoC hosting
// sim.BenchApps (three DNN streams, a render app and background load),
// captured after a short warm-up so placements and thermal state are
// non-trivial. The policy seam makes this possible without a live engine
// in the loop: Plan(View) is a pure function, so the benchmark measures
// planner cost alone — the number that bounds how often a real manager
// can replan.
func benchView(tb testing.TB) View {
	mgr := NewManager(map[string]Requirement{
		"dnn1": {MinAccuracy: 0.70, Priority: 1},
		"dnn2": {MinAccuracy: 0.70, Priority: 2},
		"dnn3": {Priority: 1},
	})
	e, err := sim.New(sim.Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       sim.BenchApps(),
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		tb.Fatal(err)
	}
	return mgr.buildView(e)
}

// benchPlan is the body of one BenchmarkPolicyPlan row: Plan over v,
// warmed first so that -benchtime 1x reads the same allocs/op as a long
// run (the first Plan fills the scratch pool).
func benchPlan(p Policy, v View) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		p.Plan(v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if plan := p.Plan(v); len(plan) != 3 {
				b.Fatalf("plan covered %d DNNs, want 3", len(plan))
			}
		}
	}
}

// BenchmarkPolicyPlan measures one full Plan over the benchView input for
// every registered policy, so planner cost shows up per strategy in the
// BENCH trajectory:
//
//	go test ./internal/rtm -bench BenchmarkPolicyPlan -benchmem
func BenchmarkPolicyPlan(b *testing.B) {
	v := benchView(b)
	for _, name := range Policies() {
		p, err := NewPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, benchPlan(p, v))
	}
}

// TestPolicyPlanAllocsIndependentOfBenchtime pins the warm-up: the
// heuristic plan's allocs/op at CI's -benchtime 1x must equal a long
// run's, or the smoke numbers measure first-use set-up, not planning.
func TestPolicyPlanAllocsIndependentOfBenchtime(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	p, err := NewPolicy("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	body := benchPlan(p, benchView(t))
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	defer bt.Set(old)
	allocsAt := func(benchtime string) int64 {
		if err := bt.Set(benchtime); err != nil {
			t.Fatal(err)
		}
		return testing.Benchmark(body).AllocsPerOp()
	}
	if one, long := allocsAt("1x"), allocsAt("500x"); one != long {
		t.Fatalf("heuristic plan: %d allocs/op at -benchtime 1x, %d at 500x", one, long)
	}
}

// BenchmarkReplan measures the full manager path — view construction,
// policy planning and actuation against a live engine — for the default
// heuristic; the Plan-only benchmark above isolates the policy share.
// Plan reuse is disabled: on a quiescent engine every iteration after the
// first would otherwise be elided, and this benchmark exists to track the
// cost of a real plan (BenchmarkReplanElided tracks the fast path).
func BenchmarkReplan(b *testing.B) {
	mgr, e := benchReplanSetup(b)
	mgr.NoPlanReuse = true
	mgr.Replan(e) // warm the manager's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Replan(e)
	}
}

// BenchmarkReplanElided measures the fingerprint-stable fast path: after
// an actuated fixed point, a Replan on a quiescent engine is a fingerprint
// compare and a counter bump.
func BenchmarkReplanElided(b *testing.B) {
	mgr, e := benchReplanSetup(b)
	mgr.Replan(e) // reach the actuated fixed point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Replan(e)
	}
	if s := mgr.PlanStats(); s.Elided < b.N {
		b.Fatalf("only %d of %d replans elided", s.Elided, b.N)
	}
}

func benchReplanSetup(b *testing.B) (*Manager, *sim.Engine) {
	mgr := NewManager(map[string]Requirement{"d": {MinAccuracy: 0.70, Priority: 1}})
	e, err := sim.New(sim.Config{
		Platform: hw.FlagshipSoC(),
		Apps: []sim.App{{Name: "d", Kind: sim.KindDNN, Profile: perf.MobileProfile(), Level: 4,
			PeriodS: 0.040, ModelBytes: 7 << 20, Placement: sim.Placement{Cluster: "npu"}}},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		b.Fatal(err)
	}
	return mgr, e
}

// Example of addressing policies through the registry, for the doc page.
func ExamplePolicies() {
	fmt.Println(Policies())
	// Output: [heuristic maxaccuracy minenergy]
}
