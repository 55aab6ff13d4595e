package pareto

import (
	"testing"
	"testing/quick"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

func fig4aPoints() []perf.OperatingPoint {
	return perf.Enumerate(hw.OdroidXU3(), perf.PaperReferenceProfile(), perf.EnumerateOptions{})
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Dominates(%v,%v) = %v", i, c.a, c.b, got)
		}
	}
}

func TestDominatesPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

// Frontier properties: subset of input, contains no dominated point, and
// every excluded point is dominated by some frontier point; idempotent.
func TestFrontierProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 3 + rng.Intn(40)
		type pt struct{ x, y float64 }
		items := make([]pt, n)
		for i := range items {
			items[i] = pt{rng.Float64(), rng.Float64()}
		}
		metric := func(p pt) []float64 { return []float64{p.x, p.y} }
		front := Frontier(items, metric)
		if len(front) == 0 || len(front) > n {
			return false
		}
		// No point on the frontier dominated by any input point.
		for _, fp := range front {
			for _, ip := range items {
				if Dominates(metric(ip), metric(fp)) {
					return false
				}
			}
		}
		// Idempotence.
		if len(Frontier(front, metric)) != len(front) {
			return false
		}
		// Every excluded point is dominated by someone.
		inFront := map[pt]bool{}
		for _, fp := range front {
			inFront[fp] = true
		}
		for _, ip := range items {
			if inFront[ip] {
				continue
			}
			dominated := false
			for _, fp := range front {
				if Dominates(metric(fp), metric(ip)) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetSatisfies(t *testing.T) {
	p := perf.OperatingPoint{LatencyS: 0.2, EnergyMJ: 100, PowerMW: 500, Accuracy: 0.7}
	cases := []struct {
		b    Budget
		want bool
	}{
		{Budget{}, true},
		{Budget{MaxLatencyS: 0.3}, true},
		{Budget{MaxLatencyS: 0.1}, false},
		{Budget{MaxEnergyMJ: 99}, false},
		{Budget{MaxPowerMW: 600, MinAccuracy: 0.6}, true},
		{Budget{MinAccuracy: 0.8}, false},
	}
	for i, c := range cases {
		if got := c.b.Satisfies(p); got != c.want {
			t.Fatalf("case %d: got %v", i, got)
		}
	}
}

// E7: the paper's first worked example. Budget (400 ms, 100 mJ) on the
// Odroid XU3 space must select the 100% model on the A7 cluster at 0.9 GHz.
func TestPaperWorkedExample400ms100mJ(t *testing.T) {
	best, ok := Best(fig4aPoints(), Budget{MaxLatencyS: 0.400, MaxEnergyMJ: 100})
	if !ok {
		t.Fatal("budget must be satisfiable")
	}
	if best.Cluster != "a7" || best.LevelName != "100%" {
		t.Fatalf("selected %v, want A7 100%% model", best)
	}
	if best.FreqGHz < 0.85 || best.FreqGHz > 0.95 {
		t.Fatalf("selected %.2f GHz, paper says 900 MHz", best.FreqGHz)
	}
}

// E7: the paper's second worked example. Budget (200 ms, 150 mJ) must move
// to a 75% model on the A15 cluster near 1 GHz.
func TestPaperWorkedExample200ms150mJ(t *testing.T) {
	best, ok := Best(fig4aPoints(), Budget{MaxLatencyS: 0.200, MaxEnergyMJ: 150})
	if !ok {
		t.Fatal("budget must be satisfiable")
	}
	if best.Cluster != "a15" || best.LevelName != "75%" {
		t.Fatalf("selected %v, want A15 75%% model", best)
	}
	if best.FreqGHz < 0.8 || best.FreqGHz > 1.2 {
		t.Fatalf("selected %.2f GHz, paper says ~1 GHz", best.FreqGHz)
	}
}

func TestBestInfeasibleBudget(t *testing.T) {
	if _, ok := Best(fig4aPoints(), Budget{MaxLatencyS: 0.0001}); ok {
		t.Fatal("impossible budget must report !ok")
	}
}

func TestMinEnergySelector(t *testing.T) {
	pts := fig4aPoints()
	me, ok := MinEnergy(pts, Budget{})
	if !ok {
		t.Fatal("unconstrained MinEnergy must succeed")
	}
	for _, p := range pts {
		if p.EnergyMJ < me.EnergyMJ {
			t.Fatal("MinEnergy did not find the minimum")
		}
	}
}

func TestStatsSpans(t *testing.T) {
	pts := fig4aPoints()
	s := Stats(pts)
	if s.N != len(pts) {
		t.Fatal("count mismatch")
	}
	if s.MinLatencyS >= s.MaxLatencyS || s.MinEnergyMJ >= s.MaxEnergyMJ {
		t.Fatal("degenerate spans")
	}
	if s.LatencySpan != s.MaxLatencyS-s.MinLatencyS {
		t.Fatal("latency span arithmetic")
	}
	if s.MinAccuracy != 0.560 || s.MaxAccuracy != 0.712 {
		t.Fatalf("accuracy range [%.3f, %.3f], want paper's [0.560, 0.712]", s.MinAccuracy, s.MaxAccuracy)
	}
}

// The knob-ablation coverage measure: all three knobs together must cover
// at least as many budgets as any single knob alone.
func TestSatisfiableFractionMonotoneInKnobs(t *testing.T) {
	plat := hw.OdroidXU3()
	prof := perf.PaperReferenceProfile()
	grid := func() ([]float64, []float64) {
		var lat, en []float64
		for _, ms := range []float64{30, 60, 120, 250, 500, 1000, 2000} {
			lat = append(lat, ms/1000)
		}
		for _, mj := range []float64{20, 40, 80, 160, 320} {
			en = append(en, mj)
		}
		return lat, en
	}
	latG, enG := grid()

	all := perf.Enumerate(plat, prof, perf.EnumerateOptions{})
	dvfsOnly := perf.Enumerate(plat, prof, perf.EnumerateOptions{
		Clusters: []string{"a15"}, Levels: []int{4}})
	modelOnly := perf.Enumerate(plat, prof, perf.EnumerateOptions{
		Clusters: []string{"a15"}})
	// model-only: fix DVFS to max freq — emulate by filtering.
	var modelOnlyMaxF []perf.OperatingPoint
	for _, p := range modelOnly {
		if p.OPPIndex == len(plat.Cluster("a15").OPPs)-1 {
			modelOnlyMaxF = append(modelOnlyMaxF, p)
		}
	}

	fAll := SatisfiableFraction(all, latG, enG)
	fDVFS := SatisfiableFraction(dvfsOnly, latG, enG)
	fModel := SatisfiableFraction(modelOnlyMaxF, latG, enG)
	if fAll < fDVFS || fAll < fModel {
		t.Fatalf("combined knobs (%.2f) must cover at least single knobs (dvfs %.2f, model %.2f)",
			fAll, fDVFS, fModel)
	}
	if fAll <= fDVFS && fAll <= fModel {
		t.Fatalf("combined knobs (%.2f) should strictly widen coverage vs at least one single knob", fAll)
	}
}

func TestSatisfiableFractionEmptyGrid(t *testing.T) {
	if SatisfiableFraction(fig4aPoints(), nil, nil) != 0 {
		t.Fatal("empty grid must return 0")
	}
}
