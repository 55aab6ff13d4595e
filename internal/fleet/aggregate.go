package fleet

import (
	"cmp"
	"fmt"
	"math"
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
	// (Runner.DropLatencies, in memory only), so the group percentile
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
	stats GroupStats
	// runs holds every kept result's ascending latency runs, shared with
	// the result rather than copied; n counts the samples they hold. kept
	// is how many results Aggregate counted for the group before the fold,
	// so runs is allocated once, at its final size.
	runs [][]LatencyRun
	n    int
	kept int
	// latSum sums each result's MeanLatencyS × Completed, whether or not
	// it kept its samples, so the group mean is the same in both modes.
	latSum float64
	// Scalar fallback for results whose raw Latencies were dropped
	// (Runner.DropLatencies): the group p95 is
	// approximated by the worst per-scenario p95.
	sampleFree bool
	scalarP95  float64
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
	// Each completion contributed exactly one sample, so mean × completed
	// is the run's latency sum.
	g.latSum += r.MeanLatencyS * float64(r.Completed)
	switch {
	case len(r.Latencies) > 0:
		if g.runs == nil {
			g.runs = make([][]LatencyRun, 0, g.kept)
		}
		g.runs = append(g.runs, r.Latencies)
		for _, run := range r.Latencies {
			g.n += run.Count
		}
	case r.Completed > 0:
		// Latency samples were dropped at run time.
		g.sampleFree = true
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
	if s.Completed > 0 {
		s.MeanLatencyS = g.latSum / float64(s.Completed)
	}
	s.P95LatencyS = percentileRuns(g.runs, g.n, 0.95)
	if g.scalarP95 > s.P95LatencyS {
		s.P95LatencyS = g.scalarP95
	}
	// Any sample-free scenario makes the group percentile approximate —
	// even when the pooled samples happened to win the max above, the pool
	// was incomplete.
	s.P95Approx = g.sampleFree
	if s.SimSeconds > 0 {
		s.ThermalRate = s.OverThrottleS / s.SimSeconds
	}
	return s
}

// Aggregate folds per-scenario results into the fleet report. Results are
// consumed in slice order, so the report is deterministic whenever the
// results slice is (which Runner.Run guarantees). Every latency run must
// count at least one sample, as runs and validated shards do.
func Aggregate(seed uint64, results []Result) Report {
	overall := &group{}
	byPlat := map[string]*group{}
	byClass := map[Class]*group{}
	byPol := map[string]*group{}
	// A first pass creates every group and counts the runs whose samples
	// it will keep.
	for _, r := range results {
		kept := 0
		if r.Err == "" && len(r.Latencies) > 0 {
			kept = 1
		}
		overall.kept += kept
		groupFor(byPlat, r.Platform).kept += kept
		groupFor(byClass, r.Class).kept += kept
		groupFor(byPol, r.Policy).kept += kept
	}
	for _, r := range results {
		// runOne and the stream decoders publish runs ascending; only a
		// hand-built result can hold another order. Sort that one into a
		// copy, so the caller's slice is never reordered.
		if !slices.IsSortedFunc(r.Latencies, byValue) {
			r.Latencies = slices.Clone(r.Latencies)
			slices.SortFunc(r.Latencies, byValue)
		}
		overall.add(r)
		byPlat[r.Platform].add(r)
		byClass[r.Class].add(r)
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

// groupFor returns m's group for k, creating it if there is none.
func groupFor[K comparable](m map[K]*group, k K) *group {
	g := m[k]
	if g == nil {
		g = &group{}
		m[k] = g
	}
	return g
}

// nearestRank returns the 0-based index of the p-quantile of n sorted
// samples under true nearest-rank (rank = ceil(n·p), 1-based), clamped to
// [0, n-1].
//
// Nearest-rank never interpolates and never selects below the requested
// coverage: the chosen sample is ≥ at least ⌈n·p⌉ of the n samples. The
// round-half-up rank this replaced (int(n·p+0.5)) under-selected whenever
// n·p had a fractional part below one half — e.g. n=10, p=0.91 gave rank 9
// where nearest-rank requires ⌈9.1⌉ = 10.
func nearestRank(n int, p float64) int {
	// The (1 - 1e-12) nudge absorbs representation dust in n·p: an exact
	// integer product that lands a hair above its true value (9.1 is not
	// representable; 10×0.91 evaluates to 9.099999…96, but 100×0.91 to
	// 91.000000…1) must not ceil one rank too high.
	idx := int(math.Ceil(float64(n)*p*(1-1e-12))) - 1
	return max(0, min(idx, n-1))
}

// percentileRuns returns the nearest-rank p-quantile of the n samples
// held across lists of runs, each list non-empty, ascending by value
// under cmp.Less and every count at least 1 (0 when there are none). It
// reorders and truncates lists, the slice headers, but never writes a run.
func percentileRuns(lists [][]LatencyRun, n int, p float64) float64 {
	if n == 0 {
		return 0
	}
	return kthOfRuns(lists, n, nearestRank(n, p))
}

// kthOfRuns returns the value at index k of the ascending expansion of
// lists, n samples in all. A max-heap holds the lists by their largest
// remaining value, and the n-1-k samples above rank k leave from its top
// a whole run at a time, in O(r·log len(lists)) for the r runs popped.
func kthOfRuns(lists [][]LatencyRun, n, k int) float64 {
	h := lists
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftTail(h, i)
	}
	for above := n - 1 - k; ; {
		top := last(h[0])
		if top.Count > above {
			return top.ValueS
		}
		above -= top.Count
		h[0] = h[0][:len(h[0])-1]
		if len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftTail(h, 0)
	}
}

// siftTail restores the max-heap order of h by last value below node i.
func siftTail(h [][]LatencyRun, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && cmp.Less(last(h[c]).ValueS, last(h[c+1]).ValueS) {
			c++
		}
		if !cmp.Less(last(h[i]).ValueS, last(h[c]).ValueS) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func last(l []LatencyRun) LatencyRun { return l[len(l)-1] }

// byValue orders latency runs by value.
func byValue(a, b LatencyRun) int { return cmp.Compare(a.ValueS, b.ValueS) }

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
	// run is the part of a Result regret reads.
	type run struct {
		policy       string
		miss, energy float64
	}
	type wl struct {
		runs    []run
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
		g.runs = append(g.runs, run{r.Policy, missRate(r), r.EnergyMJ})
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
		bestMiss, bestEnergy := g.runs[0].miss, g.runs[0].energy
		winMiss, winEnergy := bestMiss, bestEnergy
		for _, r := range g.runs[1:] {
			if r.miss < bestMiss {
				bestMiss = r.miss
			}
			if r.energy < bestEnergy {
				bestEnergy = r.energy
			}
			if r.miss < winMiss || (r.miss == winMiss && r.energy < winEnergy) {
				winMiss, winEnergy = r.miss, r.energy
			}
		}
		for _, r := range g.runs {
			a := accs[r.policy]
			if a == nil {
				a = &acc{}
				accs[r.policy] = a
			}
			a.workloads++
			a.missSum += r.miss - bestMiss
			a.energySum += r.energy - bestEnergy
			if r.miss == winMiss && r.energy == winEnergy {
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
