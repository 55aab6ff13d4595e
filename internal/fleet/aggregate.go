package fleet

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// GroupStats summarises one slice of the fleet (overall, per platform, or
// per class). Rates are frame-weighted across the group's scenarios;
// percentiles pool every job latency in the group.
type GroupStats struct {
	Scenarios int `json:"scenarios"`
	Errors    int `json:"errors"`

	Frames    int     `json:"frames"` // DNN job releases
	Completed int     `json:"completed"`
	Missed    int     `json:"missed"`
	Dropped   int     `json:"dropped"`
	MissRate  float64 `json:"missRate"` // (missed+dropped)/frames

	MeanLatencyS float64 `json:"meanLatencyS"`
	P95LatencyS  float64 `json:"p95LatencyS"`
	// P95Approx marks P95LatencyS as approximate: at least one of the
	// group's scenarios ran with its raw latency samples dropped
	// (Runner.DropLatencies / fleetsim -nolat), so the group percentile
	// could not pool every job latency and fell back to the worst
	// per-scenario p95 for the sample-free scenarios. omitempty keeps
	// full-latency reports byte-identical to the pre-marker format.
	P95Approx   bool    `json:"p95Approx,omitempty"`
	MaxLatencyS float64 `json:"maxLatencyS"`

	EnergyMJ      float64 `json:"energyMJ"`      // total across the group
	SimSeconds    float64 `json:"simSeconds"`    // total simulated time
	OverThrottleS float64 `json:"overThrottleS"` // total thermal-violation time
	ThermalRate   float64 `json:"thermalRate"`   // overThrottleS / simSeconds

	Plans       int `json:"plans"`
	Migrations  int `json:"migrations"`
	LevelSwaps  int `json:"levelSwaps"`
	OPPSwitches int `json:"oppSwitches"`

	// Fault/recovery metrics, present only when the group saw cluster
	// faults (omitempty keeps fault-free reports byte-identical to before).
	// MeanRecoveryS averages the manager's fault→actuated-replan latency
	// over Recoveries bursts. DegradedMissRate is the miss+drop+abort rate
	// of frames released while any cluster was offline; HealthyMissRate is
	// the same rate over the remaining frames — the inside/outside-window
	// comparison. UnhostedS totals running-DNN app-seconds spent placed on
	// dead hardware.
	ClusterFails     int     `json:"clusterFails,omitempty"`
	ClusterRepairs   int     `json:"clusterRepairs,omitempty"`
	JobsAborted      int     `json:"jobsAborted,omitempty"`
	UnhostedS        float64 `json:"unhostedS,omitempty"`
	Recoveries       int     `json:"recoveries,omitempty"`
	MeanRecoveryS    float64 `json:"meanRecoveryS,omitempty"`
	DegradedFrames   int     `json:"degradedFrames,omitempty"`
	DegradedMissRate float64 `json:"degradedMissRate,omitempty"`
	HealthyMissRate  float64 `json:"healthyMissRate,omitempty"`
}

// RegretStats quantifies how far one swept policy sits from the
// per-workload oracle — the best policy in the sweep on the same
// bit-identical workload. Because a sweep replays each sampled workload
// under every policy, the oracle is observable, not hypothetical: for each
// workload and metric the oracle value is simply the best value any swept
// policy achieved on that exact run. Regret is the policy's mean excess
// over that oracle, so zero regret on a metric means the policy was never
// beaten on it.
type RegretStats struct {
	// Workloads is how many swept workloads this policy was compared on
	// (workloads where any policy's run errored are excluded — a failed
	// run has no comparable miss rate or energy).
	Workloads int `json:"workloads"`
	// OracleWins counts workloads where this policy *is* the oracle under
	// the sweep's selection order (lowest miss rate, energy breaking
	// ties); ties share the win.
	OracleWins int `json:"oracleWins"`
	// MissRateRegret is the mean over workloads of (policy miss rate −
	// best swept miss rate on that workload); 0 means never beaten on QoS.
	MissRateRegret float64 `json:"missRateRegret"`
	// EnergyRegretMJ is the mean over workloads of (policy energy − best
	// swept energy on that workload), in mJ.
	EnergyRegretMJ float64 `json:"energyRegretMJ"`
}

// Report is the aggregate outcome of a fleet run, broken down by platform,
// scenario class and — when the fleet sweeps more than one planning policy
// — by policy. ByPolicy and Regret are omitted for single-policy fleets,
// where ByPolicy would duplicate Overall row for row and a one-policy
// sweep has no oracle to regret against (this also keeps single-policy
// reports byte-identical to the pre-sweep format). Maps marshal with
// sorted keys, so the JSON encoding is deterministic.
type Report struct {
	Seed       uint64                 `json:"seed"`
	Overall    GroupStats             `json:"overall"`
	ByPlatform map[string]GroupStats  `json:"byPlatform"`
	ByClass    map[Class]GroupStats   `json:"byClass"`
	ByPolicy   map[string]GroupStats  `json:"byPolicy,omitempty"`
	Regret     map[string]RegretStats `json:"regret,omitempty"`
}

// group accumulates results before finalisation.
type group struct {
	stats     GroupStats
	latencies []float64
	latSum    float64
	// Scalar fallback for results whose raw Latencies were dropped
	// (Runner.DropLatencies / fleetsim -nolat): the group mean stays exact
	// (per-scenario mean × completion count), the group p95 is
	// approximated by the worst per-scenario p95.
	scalarCount int
	scalarP95   float64
	// Fault accumulation feeding the finalised recovery metrics.
	recoverTotalS float64
	degMissed     int
	degDropped    int
}

func (g *group) add(r Result) {
	s := &g.stats
	s.Scenarios++
	if r.Err != "" {
		s.Errors++
		return
	}
	s.Frames += r.Released
	s.Completed += r.Completed
	s.Missed += r.Missed
	s.Dropped += r.Dropped
	s.EnergyMJ += r.EnergyMJ
	s.SimSeconds += r.DurationS
	s.OverThrottleS += r.OverThrottleS
	s.Plans += r.Plans
	s.Migrations += r.Migrations
	s.LevelSwaps += r.LevelSwaps
	s.OPPSwitches += r.OPPSwitches
	s.ClusterFails += r.ClusterFails
	s.ClusterRepairs += r.ClusterRepairs
	s.JobsAborted += r.JobsAborted
	s.UnhostedS += r.UnhostedS
	s.Recoveries += r.RecoverCount
	s.DegradedFrames += r.DegradedFrames
	g.recoverTotalS += r.RecoverTotalS
	g.degMissed += r.DegradedMissed
	g.degDropped += r.DegradedDropped
	if r.MaxLatencyS > s.MaxLatencyS {
		s.MaxLatencyS = r.MaxLatencyS
	}
	switch {
	case len(r.Latencies) > 0:
		g.latencies = append(g.latencies, r.Latencies...)
		for _, l := range r.Latencies {
			g.latSum += l
		}
	case r.Completed > 0:
		// Latency samples were dropped at run time; fold the scalars. Each
		// completion contributed exactly one sample, so mean × completed
		// reconstructs the group latency sum.
		g.scalarCount += r.Completed
		g.latSum += r.MeanLatencyS * float64(r.Completed)
		if r.P95LatencyS > g.scalarP95 {
			g.scalarP95 = r.P95LatencyS
		}
	}
}

func (g *group) finalise() GroupStats {
	s := g.stats
	if s.Frames > 0 {
		// Aborted frames are QoS failures too; the term is zero (and the
		// value byte-identical to before) on fault-free fleets.
		s.MissRate = float64(s.Missed+s.Dropped+s.JobsAborted) / float64(s.Frames)
	}
	if s.Recoveries > 0 {
		s.MeanRecoveryS = g.recoverTotalS / float64(s.Recoveries)
	}
	if s.DegradedFrames > 0 {
		s.DegradedMissRate = float64(g.degMissed+g.degDropped) / float64(s.DegradedFrames)
	}
	// Healthy failures are total failures minus in-window ones: aborts of
	// frames released before their cluster died land here by construction.
	if healthy := s.Frames - s.DegradedFrames; healthy > 0 && s.DegradedFrames > 0 {
		fails := s.Missed + s.Dropped + s.JobsAborted - g.degMissed - g.degDropped
		if fails < 0 {
			fails = 0
		}
		s.HealthyMissRate = float64(fails) / float64(healthy)
	}
	if n := len(g.latencies) + g.scalarCount; n > 0 {
		s.MeanLatencyS = g.latSum / float64(n)
	}
	// The group owns its pooled copy, so selection may reorder it.
	s.P95LatencyS = percentileSelect(g.latencies, 0.95)
	if g.scalarP95 > s.P95LatencyS {
		s.P95LatencyS = g.scalarP95
	}
	// Any sample-free scenario makes the group percentile approximate —
	// even when the pooled samples happened to win the max above, the pool
	// was incomplete.
	s.P95Approx = g.scalarCount > 0
	if s.SimSeconds > 0 {
		s.ThermalRate = s.OverThrottleS / s.SimSeconds
	}
	return s
}

// Aggregate folds per-scenario results into the fleet report. Results are
// consumed in slice order, so the report is deterministic whenever the
// results slice is (which Runner.Run guarantees).
func Aggregate(seed uint64, results []Result) Report {
	overall := &group{}
	byPlat := map[string]*group{}
	byClass := map[Class]*group{}
	byPol := map[string]*group{}
	for _, r := range results {
		overall.add(r)
		if byPlat[r.Platform] == nil {
			byPlat[r.Platform] = &group{}
		}
		byPlat[r.Platform].add(r)
		if byClass[r.Class] == nil {
			byClass[r.Class] = &group{}
		}
		byClass[r.Class].add(r)
		if byPol[r.Policy] == nil {
			byPol[r.Policy] = &group{}
		}
		byPol[r.Policy].add(r)
	}
	rep := Report{
		Seed:       seed,
		Overall:    overall.finalise(),
		ByPlatform: map[string]GroupStats{},
		ByClass:    map[Class]GroupStats{},
	}
	//detlint:ordered map-to-map rebuild; finalise reads only its own group
	for name, g := range byPlat {
		rep.ByPlatform[name] = g.finalise()
	}
	//detlint:ordered map-to-map rebuild; finalise reads only its own group
	for class, g := range byClass {
		rep.ByClass[class] = g.finalise()
	}
	// A policy breakdown of a single-policy fleet would repeat Overall;
	// only sweeps get one — and only sweeps have an oracle to regret
	// against.
	if len(byPol) > 1 {
		rep.ByPolicy = map[string]GroupStats{}
		//detlint:ordered map-to-map rebuild; finalise reads only its own group
		for name, g := range byPol {
			rep.ByPolicy[name] = g.finalise()
		}
		rep.Regret = regret(results)
	}
	return rep
}

// NearestRank returns the 0-based index of the p-quantile of n sorted
// samples under true nearest-rank (rank = ceil(n·p), 1-based), clamped to
// [0, n-1].
//
// Nearest-rank never interpolates and never selects below the requested
// coverage: the chosen sample is ≥ at least ⌈n·p⌉ of the n samples. The
// round-half-up rank this replaced (int(n·p+0.5)) under-selected whenever
// n·p had a fractional part below one half — e.g. n=10, p=0.91 gave rank 9
// where nearest-rank requires ⌈9.1⌉ = 10.
func NearestRank(n int, p float64) int {
	// The (1 - 1e-12) nudge absorbs representation dust in n·p: an exact
	// integer product that lands a hair above its true value (9.1 is not
	// representable; 10×0.91 evaluates to 9.099999…96, but 100×0.91 to
	// 91.000000…1) must not ceil one rank too high.
	idx := int(math.Ceil(float64(n)*p*(1-1e-12))) - 1
	return max(0, min(idx, n-1))
}

// percentileSelect returns the nearest-rank p-quantile of samples (0 when
// there are none), reordering them in place.
func percentileSelect(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return selectKth(samples, NearestRank(len(samples), p))
}

// selectKth reorders a so that a[k] holds the value slices.Sort would put
// there, and returns it: values order as cmp.Less orders them (NaNs
// first), and values that compare equal (-0 and +0) are interchangeable.
// Each round splits the window holding k three ways around a
// median-of-three pivot, so runs of equal samples cost one pass. After
// 2·log2(n) rounds it sorts what is left, so input crafted against the
// pivot rule costs O(n log n), not O(n²).
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 12 && budget > 0; budget-- {
		p := medianOfThree(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Invariant: a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := a[i]; {
			case cmp.Less(x, p):
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case cmp.Less(p, x):
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	slices.Sort(a[lo:hi])
	return a[k]
}

// medianOfThree returns the middle value of x, y, z under cmp.Less.
func medianOfThree(x, y, z float64) float64 {
	if cmp.Less(y, x) {
		x, y = y, x
	}
	if cmp.Less(z, y) {
		y = z
		if cmp.Less(y, x) {
			y = x
		}
	}
	return y
}

// missRate is a result's deadline-miss fraction, (missed+dropped+aborted)/
// released — the QoS scalar regret and the trainer's reward both score.
// Aborted frames (cluster faults) fail QoS like any other lost frame; the
// term is zero on fault-free runs.
func missRate(r Result) float64 {
	if r.Released == 0 {
		return 0
	}
	return float64(r.Missed+r.Dropped+r.JobsAborted) / float64(r.Released)
}

// workloadKey identifies one bit-identical sampled workload inside a
// policy sweep: the generator gives every run of a workload the same seed,
// name, platform and class, varying only the policy. Hand-built results
// that share all four fields are treated as the same workload.
type workloadKey struct {
	seed     uint64
	name     string
	platform string
	class    Class
}

// regret computes per-policy RegretStats from sweep results: group runs by
// workload, find each workload's per-metric oracle values, and charge
// every policy its excess. Workloads touched by an errored run are
// excluded whole — a crash has no miss rate to compare, and comparing the
// survivors only would bias their regret down. Group iteration is
// first-seen order over the results slice, so the computation (a float
// accumulation per policy) is deterministic whenever the results order is.
// Returns nil when no workload was run under more than one policy.
func regret(results []Result) map[string]RegretStats {
	type wl struct {
		runs    []Result
		errored bool
	}
	var order []workloadKey
	groups := map[workloadKey]*wl{}
	for _, r := range results {
		k := workloadKey{r.Seed, r.Name, r.Platform, r.Class}
		g := groups[k]
		if g == nil {
			g = &wl{}
			groups[k] = g
			order = append(order, k)
		}
		if r.Err != "" {
			g.errored = true
			continue
		}
		g.runs = append(g.runs, r)
	}
	type acc struct {
		workloads int
		wins      int
		missSum   float64
		energySum float64
	}
	accs := map[string]*acc{}
	for _, k := range order {
		g := groups[k]
		if g.errored || len(g.runs) < 2 {
			continue
		}
		// Per-metric oracle values, plus the combined oracle (min miss
		// rate, energy breaking ties) for win counting.
		bestMiss, bestEnergy := missRate(g.runs[0]), g.runs[0].EnergyMJ
		winMiss, winEnergy := bestMiss, bestEnergy
		for _, r := range g.runs[1:] {
			m := missRate(r)
			if m < bestMiss {
				bestMiss = m
			}
			if r.EnergyMJ < bestEnergy {
				bestEnergy = r.EnergyMJ
			}
			if m < winMiss || (m == winMiss && r.EnergyMJ < winEnergy) {
				winMiss, winEnergy = m, r.EnergyMJ
			}
		}
		for _, r := range g.runs {
			a := accs[r.Policy]
			if a == nil {
				a = &acc{}
				accs[r.Policy] = a
			}
			m := missRate(r)
			a.workloads++
			a.missSum += m - bestMiss
			a.energySum += r.EnergyMJ - bestEnergy
			if m == winMiss && r.EnergyMJ == winEnergy {
				a.wins++
			}
		}
	}
	if len(accs) == 0 {
		return nil
	}
	out := make(map[string]RegretStats, len(accs))
	//detlint:ordered map-to-map rebuild; each RegretStats is computed from its own accumulator
	for name, a := range accs {
		out[name] = RegretStats{
			Workloads:      a.workloads,
			OracleWins:     a.wins,
			MissRateRegret: a.missSum / float64(a.workloads),
			EnergyRegretMJ: a.energySum / float64(a.workloads),
		}
	}
	return out
}

// Run is the one-call entry point: generate n workloads from the config,
// run each under every configured policy across the pool, and aggregate
// (n workloads × P policies scenario runs in total).
func Run(cfg GeneratorConfig, n, workers int) (Report, []Result, error) {
	if n <= 0 {
		return Report{}, nil, fmt.Errorf("fleet: scenario count %d must be positive", n)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		return Report{}, nil, err
	}
	scenarios := gen.Generate(gen.RunCount(n))
	runner := &Runner{Workers: workers}
	results := runner.Run(scenarios)
	return Aggregate(cfg.Seed, results), results, nil
}
