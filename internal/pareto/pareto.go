// Package pareto provides Pareto-frontier computation and budget queries
// over operating-point spaces. Section V of the paper frames runtime
// management as selecting among "dynamically selectable operating points in
// the E, P, t, accuracy space"; this package implements that selection.
package pareto

import (
	"math"
	"sort"

	"github.com/emlrtm/emlrtm/internal/perf"
)

// Dominates reports whether metric vector a dominates b under minimisation:
// a is no worse in every dimension and strictly better in at least one.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic("pareto: dimension mismatch")
	}
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// Frontier returns the non-dominated subset of items under the metric
// function (minimisation in every dimension). Order of the result follows
// the input order. O(n²), fine for the few-hundred-point spaces here.
func Frontier[T any](items []T, metric func(T) []float64) []T {
	ms := make([][]float64, len(items))
	for i, it := range items {
		ms[i] = metric(it)
	}
	var out []T
	for i := range items {
		dominated := false
		for j := range items {
			if i != j && Dominates(ms[j], ms[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, items[i])
		}
	}
	return out
}

// LatencyEnergyMetric is the Fig 4(a) plane: minimise (latency, energy)
// while maximising accuracy, encoded as (t, E, -acc).
func LatencyEnergyMetric(p perf.OperatingPoint) []float64 {
	return []float64{p.LatencyS, p.EnergyMJ, -p.Accuracy}
}

// Budget expresses an application/device constraint set. Zero-valued
// fields are unconstrained. This is the vocabulary the RTM receives from
// application monitors (latency, accuracy) and device monitors (power).
type Budget struct {
	MaxLatencyS float64
	MaxEnergyMJ float64
	MaxPowerMW  float64
	MinAccuracy float64
}

// Satisfies reports whether point p meets every constraint of b.
func (b Budget) Satisfies(p perf.OperatingPoint) bool {
	if b.MaxLatencyS > 0 && p.LatencyS > b.MaxLatencyS {
		return false
	}
	if b.MaxEnergyMJ > 0 && p.EnergyMJ > b.MaxEnergyMJ {
		return false
	}
	if b.MaxPowerMW > 0 && p.PowerMW > b.MaxPowerMW {
		return false
	}
	if b.MinAccuracy > 0 && p.Accuracy < b.MinAccuracy {
		return false
	}
	return true
}

// Filter returns the points satisfying the budget, preserving order.
func Filter(points []perf.OperatingPoint, b Budget) []perf.OperatingPoint {
	var out []perf.OperatingPoint
	for _, p := range points {
		if b.Satisfies(p) {
			out = append(out, p)
		}
	}
	return out
}

// Best selects from the feasible set by the paper's worked-example rule:
// maximise accuracy first, then minimise energy, then minimise latency.
// ok is false when no point satisfies the budget.
func Best(points []perf.OperatingPoint, b Budget) (best perf.OperatingPoint, ok bool) {
	feasible := Filter(points, b)
	if len(feasible) == 0 {
		return perf.OperatingPoint{}, false
	}
	sort.SliceStable(feasible, func(i, j int) bool {
		a, c := feasible[i], feasible[j]
		if a.Accuracy != c.Accuracy {
			return a.Accuracy > c.Accuracy
		}
		if a.EnergyMJ != c.EnergyMJ {
			return a.EnergyMJ < c.EnergyMJ
		}
		return a.LatencyS < c.LatencyS
	})
	return feasible[0], true
}

// MinEnergy selects the feasible point with the lowest energy (tie-break:
// higher accuracy, then lower latency).
func MinEnergy(points []perf.OperatingPoint, b Budget) (perf.OperatingPoint, bool) {
	feasible := Filter(points, b)
	if len(feasible) == 0 {
		return perf.OperatingPoint{}, false
	}
	sort.SliceStable(feasible, func(i, j int) bool {
		a, c := feasible[i], feasible[j]
		if a.EnergyMJ != c.EnergyMJ {
			return a.EnergyMJ < c.EnergyMJ
		}
		if a.Accuracy != c.Accuracy {
			return a.Accuracy > c.Accuracy
		}
		return a.LatencyS < c.LatencyS
	})
	return feasible[0], true
}

// RangeStats summarises the dynamic range a set of points offers — the
// paper's claim that combining the model knob with DVFS and mapping
// "achieves a wider dynamic range of performance trade-off" (Section IV)
// is quantified with these numbers in the knob ablation.
type RangeStats struct {
	N           int
	MinLatencyS float64
	MaxLatencyS float64
	MinEnergyMJ float64
	MaxEnergyMJ float64
	MinAccuracy float64
	MaxAccuracy float64
	// HyperVolume is the area of the (latency, energy) rectangle spanned:
	// a scalar proxy for trade-off range.
	LatencySpan float64
	EnergySpan  float64
}

// Stats computes RangeStats over points (which must be non-empty).
func Stats(points []perf.OperatingPoint) RangeStats {
	s := RangeStats{
		N:           len(points),
		MinLatencyS: math.Inf(1), MaxLatencyS: math.Inf(-1),
		MinEnergyMJ: math.Inf(1), MaxEnergyMJ: math.Inf(-1),
		MinAccuracy: math.Inf(1), MaxAccuracy: math.Inf(-1),
	}
	for _, p := range points {
		s.MinLatencyS = math.Min(s.MinLatencyS, p.LatencyS)
		s.MaxLatencyS = math.Max(s.MaxLatencyS, p.LatencyS)
		s.MinEnergyMJ = math.Min(s.MinEnergyMJ, p.EnergyMJ)
		s.MaxEnergyMJ = math.Max(s.MaxEnergyMJ, p.EnergyMJ)
		s.MinAccuracy = math.Min(s.MinAccuracy, p.Accuracy)
		s.MaxAccuracy = math.Max(s.MaxAccuracy, p.Accuracy)
	}
	s.LatencySpan = s.MaxLatencyS - s.MinLatencyS
	s.EnergySpan = s.MaxEnergyMJ - s.MinEnergyMJ
	return s
}

// SatisfiableFraction returns the fraction of budgets (cartesian product of
// the latency and energy grids) that at least one point satisfies — the
// coverage measure used by the knob ablation (A1 in internal/experiments).
func SatisfiableFraction(points []perf.OperatingPoint, latencyGridS, energyGridMJ []float64) float64 {
	if len(latencyGridS) == 0 || len(energyGridMJ) == 0 {
		return 0
	}
	hit := 0
	for _, lt := range latencyGridS {
		for _, e := range energyGridMJ {
			b := Budget{MaxLatencyS: lt, MaxEnergyMJ: e}
			for _, p := range points {
				if b.Satisfies(p) {
					hit++
					break
				}
			}
		}
	}
	return float64(hit) / float64(len(latencyGridS)*len(energyGridMJ))
}
