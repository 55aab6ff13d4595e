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
	r, _ := runOne(s, runOpts{keepLatencies: true})
	return r
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

// runOpts bundles the per-run knobs runOne threads through to
// workload.RunEngineOpts: whether raw Latencies are published, which
// worker's run state to reuse (nil builds everything fresh), and whether
// replan elision is disabled. None of them change a result byte —
// TestWorkerReuseEquivalence and TestReplanElisionEquivalence pin that.
type runOpts struct {
	keepLatencies bool
	w             *worker
	noPlanReuse   bool
}

// runOne is RunOne with runOpts control. It also returns the manager's
// plan-reuse counters for observability accumulation.
func runOne(s Scenario, o runOpts) (Result, rtm.PlanStats) {
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
	w := o.w
	if w == nil {
		w = &worker{}
	}
	// Only the named platform is built, never the whole catalog.
	plat := w.platform(s.Platform)
	if plat == nil {
		res.Err = fmt.Sprintf("unknown platform %q", s.Platform)
		return res, rtm.PlanStats{}
	}
	_, mgr, rep, err := workload.RunEngineOpts(&w.stack, script, plat, TickS, nil, workload.RunOptions{
		DisablePlanReuse: o.noPlanReuse,
		LatenciesOnly:    true,
	})
	if err != nil {
		res.Err = err.Error()
		return res, rtm.PlanStats{}
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
		return res, mgr.PlanStats()
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
	if o.keepLatencies {
		// Publish an exact-size copy in completion order: the engine's
		// buffer never escapes, and its spare capacity never reaches the
		// Result.
		res.Latencies = make([]float64, len(raw))
		copy(res.Latencies, raw)
	}
	res.P95LatencyS = percentileSelect(raw, 0.95)
	return res, mgr.PlanStats()
}

// Runner fans scenarios out over a bounded worker pool.
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
	// NoPlanReuse turns off replan elision in every scenario's manager
	// (rtm.Manager.NoPlanReuse; the fleetsim -elide=false switch).
	// Results are byte-identical either way — the switch exists so CI can
	// prove exactly that, and so regressions can be bisected against the
	// elision-free path.
	NoPlanReuse bool

	// planStats accumulates every run's plan-reuse counters across this
	// Runner's lifetime (all Run calls). It sits behind a pointer so the
	// Runner itself stays a plain copyable value: the streaming path
	// copies a caller's Runner to rewire OnResult, and a shared
	// accumulator is exactly what that copy should inherit.
	planStats *planStatsAccum
}

// planStatsAccum is the mutex-guarded plan-reuse counter shared by every
// copy of a Runner.
type planStatsAccum struct {
	mu sync.Mutex
	s  rtm.PlanStats
}

// PlanStats reports the accumulated plan-reuse counters of every
// scenario this Runner has executed. The totals are observability only:
// they describe how planning work was skipped, not what the simulation
// did, so these numbers never enter reports.
func (r *Runner) PlanStats() rtm.PlanStats {
	if r.planStats == nil {
		return rtm.PlanStats{}
	}
	r.planStats.mu.Lock()
	defer r.planStats.mu.Unlock()
	return r.planStats.s
}

// addPlanStats folds one worker's accumulated counters into the runner's.
func (r *Runner) addPlanStats(s rtm.PlanStats) {
	r.planStats.mu.Lock()
	r.planStats.s.Add(s)
	r.planStats.mu.Unlock()
}

// ensurePlanStats lazily installs the shared accumulator. Called from the
// single-threaded entry of Run (and before the streaming path copies the
// Runner), so later copies share one accumulator with the original.
func (r *Runner) ensurePlanStats() {
	if r.planStats == nil {
		r.planStats = &planStatsAccum{}
	}
}

// Run executes all scenarios and returns results indexed by scenario
// position. Output is bit-identical for any worker count: each run is
// independent and results land in their own slot. Each worker owns one
// run stack — engine, manager, scenario controller and catalog platforms
// — for its whole scenario stream, Reset in place between scenarios, so
// construction is paid once per worker, not once per scenario.
func (r *Runner) Run(scenarios []Scenario) []Result {
	r.ensurePlanStats()
	results := make([]Result, len(scenarios))
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers <= 1 {
		o := runOpts{keepLatencies: !r.DropLatencies, w: &worker{}, noPlanReuse: r.NoPlanReuse}
		var stats rtm.PlanStats
		for i, s := range scenarios {
			var ps rtm.PlanStats
			results[i], ps = runOne(s, o)
			stats.Add(ps)
			if r.OnResult != nil {
				r.OnResult(i, results[i])
			}
			if r.Progress != nil {
				r.Progress(i+1, len(scenarios))
			}
		}
		r.addPlanStats(stats)
		return results
	}
	// emit tracks in-order delivery for OnResult: ready marks finished
	// indices, emit is the next index owed to the callback. Whichever
	// worker completes the missing prefix element drains everything that
	// became deliverable behind it, under the mutex, so callbacks stay
	// serialized and ordered. Progress shares the critical section so a
	// Progress(done, total) call can never race ahead of the OnResult
	// deliveries it claims to cover.
	var (
		emitMu sync.Mutex
		ready  []bool
		emit   int
	)
	if r.OnResult != nil {
		ready = make([]bool, len(scenarios))
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			o := runOpts{keepLatencies: !r.DropLatencies, w: &worker{}, noPlanReuse: r.NoPlanReuse}
			var stats rtm.PlanStats
			defer func() { r.addPlanStats(stats) }()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scenarios) {
					return
				}
				var ps rtm.PlanStats
				results[i], ps = runOne(scenarios[i], o)
				stats.Add(ps)
				if r.OnResult != nil {
					emitMu.Lock()
					ready[i] = true
					delivered := 0
					for emit < len(ready) && ready[emit] {
						r.OnResult(emit, results[emit])
						emit++
						delivered++
					}
					if r.Progress != nil && delivered > 0 {
						r.Progress(emit, len(scenarios))
					}
					emitMu.Unlock()
				} else if r.Progress != nil {
					r.Progress(int(done.Add(1)), len(scenarios))
				}
			}
		}()
	}
	wg.Wait()
	return results
}
