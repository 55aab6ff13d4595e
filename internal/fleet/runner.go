package fleet

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Result is the compact outcome of one scenario run. Latencies carries
// the run's per-job latency samples, in whole nanoseconds, as ascending
// runs of equal values; Aggregate pools them for percentiles. It is part
// of the JSON encoding, each run as [value,count], so results round-trip
// through a file and merge across processes with exact pooled latency
// stats. A shard stream and Merge require one sample per completed job;
// only results held in memory may lack them (Runner.DropLatencies), and
// Aggregate then falls back to the scalar stats for the pooled p95.
type Result struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Class    Class  `json:"class"`
	Platform string `json:"platform"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
	Err      string `json:"err,omitempty"`

	DurationS float64 `json:"durationS"`

	Released  int `json:"released"`
	Completed int `json:"completed"`
	Missed    int `json:"missed"`
	Dropped   int `json:"dropped"`

	MeanLatencyS float64 `json:"meanLatencyS"`
	P95LatencyS  float64 `json:"p95LatencyS"`
	MaxLatencyS  float64 `json:"maxLatencyS"`

	EnergyMJ   float64 `json:"energyMJ"`
	AvgPowerMW float64 `json:"avgPowerMW"`

	MaxTempC      float64 `json:"maxTempC"`
	OverThrottleS float64 `json:"overThrottleS"`

	Plans       int `json:"plans"`
	Migrations  int `json:"migrations"`
	LevelSwaps  int `json:"levelSwaps"`
	OPPSwitches int `json:"oppSwitches"`

	// Fault accounting, present only for runs that saw cluster faults
	// (omitempty keeps fault-free shard files byte-identical to before).
	// RecoverTotalS sums the manager's fault→actuated-replan latencies over
	// RecoverCount bursts; DegradedFrames/Missed/Dropped count frames
	// released while any cluster was offline and their outcomes.
	ClusterFails    int     `json:"clusterFails,omitempty"`
	ClusterRepairs  int     `json:"clusterRepairs,omitempty"`
	JobsAborted     int     `json:"jobsAborted,omitempty"`
	UnhostedS       float64 `json:"unhostedS,omitempty"`
	RecoverCount    int     `json:"recoverCount,omitempty"`
	RecoverTotalS   float64 `json:"recoverTotalS,omitempty"`
	DegradedFrames  int     `json:"degradedFrames,omitempty"`
	DegradedMissed  int     `json:"degradedMissed,omitempty"`
	DegradedDropped int     `json:"degradedDropped,omitempty"`

	Latencies []LatencyRun `json:"latencies,omitempty"`
}

// LatencyRun is Count job latencies of one value, ValueS seconds. Fleet
// runs record latencies in whole nanoseconds, so ValueS is float64(ns)/1e9.
// A run marshals as the JSON array [value,count] (see record.go).
type LatencyRun struct {
	ValueS float64
	Count  int
}

// TickS is the manager epoch every fleet run uses; a constant keeps runs
// comparable across scenarios.
const TickS = 0.25

// RunOne executes a single scenario to completion. It is a pure function
// of the scenario (no logging, and a run on reused parts equals a run on
// fresh ones), which is what makes fleet results independent of
// scheduling. RunOne itself builds everything fresh.
func RunOne(s Scenario) Result {
	return runOne(&s, nil, true)
}

// worker is the run state one fleet worker reuses across its whole
// scenario stream: the workload stack (engine, manager, controller) Reset
// in place between scenarios, one build of each catalog platform it has
// run and the latency scratch copy. Nothing in the engine, manager or
// policies writes to a Platform, so a platform is built once per worker,
// not once per run.
type worker struct {
	stack workload.Stack
	plats map[string]*hw.Platform
}

// platform returns the worker's build of the named catalog platform, or
// nil for an unknown name.
func (w *worker) platform(name string) *hw.Platform {
	p, ok := w.plats[name]
	if !ok {
		if w.plats == nil {
			w.plats = map[string]*hw.Platform{}
		}
		p = hw.NewPlatform(name)
		w.plats[name] = p
	}
	return p
}

// runOne is RunOne on a worker's reused run state (nil builds everything
// fresh). keepLatencies publishes the Latencies runs and changes no other
// field; reuse changes no result byte, which
// TestWorkerReuseEquivalence pins. It only reads *s, and copies its
// script only to default the script's policy.
func runOne(s *Scenario, w *worker, keepLatencies bool) Result {
	script := &s.Script
	if script.Policy == "" && s.Policy != "" {
		// Hand-built scenarios may set only the outer Policy field.
		named := *script
		named.Policy = s.Policy
		script = &named
	}
	res := Result{
		ID:       s.ID,
		Name:     script.Name,
		Class:    s.Class,
		Platform: s.Platform,
		Policy:   script.Policy,
		Seed:     s.Seed,
	}
	if script.Planner != nil {
		// An injected policy instance (workload.Scenario.Planner) plans
		// the run regardless of the Policy name; label the result after
		// what actually planned, or per-policy aggregates would charge
		// its miss/energy numbers to the named (default) policy's group.
		res.Policy = script.Planner.Name()
	}
	if res.Policy == "" {
		res.Policy = rtm.DefaultPolicy
	}
	if w == nil {
		w = &worker{}
	}
	// Only the named platform is built, never the whole catalog.
	plat := w.platform(s.Platform)
	if plat == nil {
		res.Err = fmt.Sprintf("unknown platform %q", s.Platform)
		return res
	}
	_, mgr, rep, err := w.stack.Run(script, plat, TickS)
	if err != nil {
		res.Err = err.Error()
		return res
	}

	res.DurationS = rep.DurationS
	res.EnergyMJ = rep.TotalEnergyMJ
	res.AvgPowerMW = rep.AvgPowerMW
	res.MaxTempC = rep.MaxTempC
	res.OverThrottleS = rep.OverThrottleS
	res.Plans = mgr.Plans()
	res.Migrations = rep.Migrations
	res.LevelSwaps = rep.LevelSwaps
	res.OPPSwitches = rep.OPPSwitches
	res.ClusterFails = rep.ClusterFails
	res.ClusterRepairs = rep.ClusterRepairs
	res.JobsAborted = rep.JobsAborted
	res.UnhostedS = rep.UnhostedS
	res.DegradedFrames = rep.DegradedFrames
	res.DegradedMissed = rep.DegradedMissed
	res.DegradedDropped = rep.DegradedDropped
	res.RecoverCount, res.RecoverTotalS = mgr.Recoveries()
	for _, a := range rep.Apps {
		if a.Kind != sim.KindDNN {
			continue
		}
		res.Released += a.Released
		res.Completed += a.Completed
		res.Missed += a.Missed
		res.Dropped += a.Dropped
	}
	// The next run's Reset truncates the engine's latency log, and nothing
	// else reads it, so summarise permutes it in place.
	summarise(&res, rep.LatenciesNS, keepLatencies)
	return res
}

// summarise fills res's latency stats from a run's latencies, whole
// nanoseconds, and leaves lat permuted. The mean comes from their exact
// integer sum and the max from a scan. The p95 is selected in place, and
// lat is sorted whole only when keepLatencies publishes the runs; a sort
// puts the same value at the p95's rank, so the stats do not depend on
// whether the runs are kept, nor on lat's order.
func summarise(res *Result, lat []int64, keepLatencies bool) {
	n := len(lat)
	if n == 0 {
		return
	}
	sum, hi := int64(0), lat[0]
	for _, v := range lat {
		sum += v
		hi = max(hi, v)
	}
	res.MeanLatencyS = float64(sum) / 1e9 / float64(n)
	res.MaxLatencyS = float64(hi) / 1e9
	k := nearestRank(n, 0.95)
	if !keepLatencies {
		res.P95LatencyS = float64(selectKth(lat, k, 2*bits.Len(uint(n)))) / 1e9
		return
	}
	slices.Sort(lat)
	res.P95LatencyS = float64(lat[k]) / 1e9
	res.Latencies = latencyRuns(lat)
}

// selectKth permutes xs so that xs[k] holds the value a sort would put
// there, and returns it. Each round partitions the range holding k three
// ways, around the median of three of its values at pseudo-random
// positions, and keeps the part holding k; a run of values equal to the
// pivot ends it at once. The positions come from a fixed xorshift
// sequence, so the result and its cost are deterministic, and no
// ordering of the input (sorted, reversed, organ pipe) makes the pivots
// poor. After the given number of rounds the range left is sorted
// instead; summarise allows 2·log2(n), so no input costs much more than a
// sort.
func selectKth(xs []int64, k, rounds int) int64 {
	lo, hi := 0, len(xs)
	r := uint64(0x9e3779b97f4a7c15)
	at := func() int64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return xs[lo+int(r%uint64(hi-lo))]
	}
	for ; hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo:hi])
			break
		}
		p := median3(at(), at(), at())
		// [lo,lt) < p, [lt,i) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[gt], xs[i] = v, xs[gt]
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
			return p
		}
	}
	return xs[k]
}

// median3 returns the median of a, b and c.
func median3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// latencyRuns run-length encodes sorted nanosecond samples into an
// exact-size slice of runs, values in seconds.
func latencyRuns(ns []int64) []LatencyRun {
	distinct := 1
	for i := 1; i < len(ns); i++ {
		if ns[i] != ns[i-1] {
			distinct++
		}
	}
	runs := make([]LatencyRun, 0, distinct)
	for i := 0; i < len(ns); {
		j := i + 1
		for j < len(ns) && ns[j] == ns[i] {
			j++
		}
		runs = append(runs, LatencyRun{ValueS: float64(ns[i]) / 1e9, Count: j - i})
		i = j
	}
	return runs
}

// Runner fans scenarios out over a bounded worker pool. Every manager
// elides fingerprint-stable replans; the results are byte-identical to
// planning each replan fresh (TestReplanElisionEquivalence).
type Runner struct {
	// Workers is the pool size; 0 means runtime.NumCPU().
	Workers int
	// Progress, when set, is called as scenarios complete with the number
	// done so far and the total. Calls arrive from worker goroutines; the
	// callback must be safe for concurrent use.
	//
	// When OnResult is also set, done counts *delivered* results — the
	// prefix-complete count — and every Progress(done, total) call is
	// ordered strictly after the OnResult calls for indices [0, done).
	// A streaming consumer can therefore treat done as "results 0..done-1
	// are on disk". Without OnResult, done counts raw completions, which
	// finish out of order under the pool.
	Progress func(done, total int)
	// DropLatencies omits the Latencies runs from every Result held in
	// memory; runs compute their scalar stats the same way either way.
	// The scalar per-scenario mean/p95/max and the group means stay
	// exact; what is lost is the pooled group percentile, which Aggregate
	// then approximates from the per-scenario p95s. A shard stream
	// carries every latency, so ResumeShard refuses a runner with it set,
	// and Merge refuses shards without them. Its users are the
	// benchmark's engine-bound and plan-bound workloads.
	DropLatencies bool
	// SyncEvery, for streaming runs (ResumeShard), fsyncs the stream file
	// after every this-many appended records. 0 (the default) never
	// fsyncs mid-run: per-record bufio flushes already survive process
	// death, and fsync only buys durability against whole-machine power
	// loss — see StreamWriter's crash model.
	SyncEvery int
	// OnResult, when set, is called exactly once per completed scenario,
	// in ascending scenario-index order (index is the position in the
	// slice passed to Run). Workers complete out of order; Run holds
	// finished results back until every earlier index has been delivered,
	// so a streaming consumer (the crash-resume stream writer) sees the
	// same prefix-complete order a sequential run would produce. Calls are
	// serialized but may arrive from any worker goroutine.
	OnResult func(index int, r Result)
}

// Run executes all scenarios and returns results indexed by scenario
// position. Output is bit-identical for any worker count: each run is
// independent and results land in their own slot. Each worker owns one
// run stack — engine, manager, scenario controller and catalog platforms
// — for its whole scenario stream, Reset in place between scenarios, so
// construction is paid once per worker, not once per scenario.
func (r *Runner) Run(scenarios []Scenario) []Result {
	n := len(scenarios)
	results := make([]Result, n)
	// OnResult delivery is in order: ready marks finished indices and emit
	// is the next index owed to the callback. Whichever run completes the
	// missing prefix element drains everything deliverable behind it.
	// Progress shares the critical section, so a Progress(done, total)
	// call never races ahead of the OnResult calls it claims to cover.
	var (
		mu    sync.Mutex
		ready []bool
		emit  int
		done  atomic.Int64
	)
	if r.OnResult != nil {
		ready = make([]bool, n)
	}
	forEachRun(r.Workers, n, func(i int, w *worker) {
		results[i] = runOne(&scenarios[i], w, !r.DropLatencies)
		if r.OnResult == nil {
			if r.Progress != nil {
				r.Progress(int(done.Add(1)), n)
			}
			return
		}
		mu.Lock()
		defer mu.Unlock()
		ready[i] = true
		from := emit
		for emit < n && ready[emit] {
			r.OnResult(emit, results[emit])
			emit++
		}
		if r.Progress != nil && emit > from {
			r.Progress(emit, n)
		}
	})
	return results
}

// forEachRun calls fn(i, w) for every i in [0, n) on a pool of at most
// workers goroutines (workers <= 0 means runtime.NumCPU()). Each goroutine
// hands fn its own worker run state for every index it takes, so engine,
// manager and platform construction is paid once per worker. One worker
// runs inline, in index order. Callers store results by index, so
// scheduling never reorders anything.
func forEachRun(workers, n int, fn func(i int, w *worker)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		w := &worker{}
		for i := range n {
			fn(i, w)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			w := &worker{}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, w)
			}
		}()
	}
	wg.Wait()
}
