package fleet

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Result is the compact outcome of one scenario run. Latencies carries the
// raw per-job samples Aggregate pools for percentiles; it is part of the
// JSON encoding so results can round-trip through a file and be merged
// across processes (the ROADMAP's distributed-fleet path) without silently
// zeroing the pooled latency stats. The field is optional: runs made with
// Runner.DropLatencies (fleetsim -nolat) omit it to keep million-scenario
// shard files small, and Aggregate then falls back to the scalar stats.
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

	Latencies []float64 `json:"latencies,omitempty"`
}

// TickS is the manager epoch every fleet run uses; a constant keeps runs
// comparable across scenarios.
const TickS = 0.25

// RunOne executes a single scenario to completion. It is a pure function
// of the scenario (no logging, and a run on reused parts equals a run on
// fresh ones), which is what makes fleet results independent of
// scheduling. RunOne itself builds everything fresh.
func RunOne(s Scenario) Result {
	return runOne(s, nil, true)
}

// worker is the run state one fleet worker reuses across its whole
// scenario stream: the workload stack (engine, manager, controller) Reset
// in place between scenarios, and one build of each catalog platform it
// has run. Nothing in the engine, manager or policies writes to a
// Platform, so a platform is built once per worker, not once per run.
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
// fresh); keepLatencies publishes the raw Latencies. Neither changes a
// result byte: TestWorkerReuseEquivalence pins that.
func runOne(s Scenario, w *worker, keepLatencies bool) Result {
	script := s.Script
	if script.Policy == "" {
		// Hand-built scenarios may set only the outer Policy field.
		script.Policy = s.Policy
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
	_, mgr, rep, err := workload.RunEngineOpts(&w.stack, script, plat, TickS, nil, workload.RunOptions{LatenciesOnly: true})
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
	for _, rec := range mgr.FaultRecoveries() {
		res.RecoverCount++
		res.RecoverTotalS += rec
	}
	for _, a := range rep.Apps {
		if a.Kind != sim.KindDNN {
			continue
		}
		res.Released += a.Released
		res.Completed += a.Completed
		res.Missed += a.Missed
		res.Dropped += a.Dropped
	}
	// raw is the engine's own latency log, in completion order. The
	// engine's next Reset rewrites it, so selection may reorder it in
	// place once the published copy is taken.
	raw := rep.Latencies
	if len(raw) == 0 {
		return res
	}
	var sum float64
	maxL := raw[0]
	for _, l := range raw {
		sum += l
		if cmp.Less(maxL, l) {
			maxL = l
		}
	}
	res.MeanLatencyS = sum / float64(len(raw))
	res.MaxLatencyS = maxL
	if keepLatencies {
		// Publish an exact-size copy in completion order: the engine's
		// buffer never escapes, and its spare capacity never reaches the
		// Result.
		res.Latencies = make([]float64, len(raw))
		copy(res.Latencies, raw)
	}
	res.P95LatencyS = percentileSelect(raw, 0.95)
	return res
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
	// DropLatencies omits the raw per-job Latencies samples from every
	// Result (the fleetsim -nolat switch). The scalar per-scenario
	// mean/p95/max stay exact; what is lost is the pooled group
	// percentile, which Aggregate then approximates from the per-scenario
	// p95s. Raw samples dominate result and shard-file size, so
	// million-scenario fleets run with this set.
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
		results[i] = runOne(scenarios[i], w, !r.DropLatencies)
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
