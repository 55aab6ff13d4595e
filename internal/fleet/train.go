package fleet

import (
	"fmt"
	"math"
	"strings"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/rtm"
)

// This file is the offline trainer behind the "learned:<table.json>"
// policy: it replays seeded fleet scenarios under every base policy (arm),
// records which discretised planning states each run visited, scores the
// run on a miss-rate + energy reward, and credits the score to every
// (state, arm) cell the run touched. A pure per-arm sweep seeds the table;
// epsilon-greedy epochs then refine it by re-running the workloads with
// per-state arm selection, so cells that only ever appear mid-run under
// mixed control get their own evidence. The PR 3 policy registry supplies
// the arms and the PR 4 allocation-free hot path is what makes the
// resulting run count cheap — this loop is planner-bound, not GC-bound.

// TrainConfig parametrises offline training of a learned policy table.
// TrainConfig{Seed: 1, Workloads: 64} is a complete configuration: arms,
// weights and workers default as documented, and zero Epochs/Epsilon are
// honoured as written (pure per-arm sweep, greedy refinement).
type TrainConfig struct {
	// Seed is the master seed: it derives the sampled workloads (exactly
	// as GeneratorConfig.Seed does) and every exploration decision, so a
	// given config trains to a byte-identical table.
	Seed uint64
	// Workloads is how many fleet workloads to sample (required, > 0).
	Workloads int
	// Workers bounds the training worker pool (0 = NumCPU). The trained
	// table is bit-identical for any value: runs within a phase read a
	// frozen table, and observations apply in run-index order.
	Workers int
	// Platforms / Classes restrict sampling, as in GeneratorConfig.
	Platforms []string
	Classes   []Class
	// Arms lists the base policies the table selects among (default:
	// heuristic, maxaccuracy, minenergy). Plain registry names only.
	Arms []string
	// Epochs is how many epsilon-greedy refinement epochs follow the
	// per-arm sweep. Zero is meaningful — a pure-sweep table — so no
	// default applies; fleetsim train's flag supplies its own (2).
	Epochs int
	// Epsilon is the per-Plan exploration probability during refinement
	// epochs. Zero is meaningful — greedy refinement (unseen states
	// still explore) — so no default applies; fleetsim train's flag
	// supplies its own (0.1).
	Epsilon float64
	// MissWeight and EnergyWeight define the scalar training cost of one
	// run: MissWeight·missRate + EnergyWeight·avgPowerW (defaults 1 and
	// 0.05 when both are zero — misses dominate, energy breaks ties).
	// Both must be finite.
	MissWeight   float64
	EnergyWeight float64
}

// ArmTrainStats is one arm's pure-sweep summary in a TrainReport.
type ArmTrainStats struct {
	// Runs is how many sweep runs the arm executed (one per workload).
	Runs int `json:"runs"`
	// MeanCost is the arm's mean training cost across those runs — the
	// number the learned policy must undercut to be worth shipping.
	MeanCost float64 `json:"meanCost"`
}

// TrainReport summarises a training run for humans and smoke tests.
type TrainReport struct {
	Workloads int      `json:"workloads"`
	Runs      int      `json:"runs"` // total scenario executions
	States    int      `json:"states"`
	Arms      []string `json:"arms"`
	// Sweep holds each arm's pure-sweep stats, keyed by arm name.
	Sweep map[string]ArmTrainStats `json:"sweep"`
}

// applied returns cfg with defaults resolved (see field docs). Epochs and
// Epsilon are deliberately not defaulted: zero is a meaningful setting for
// both (pure sweep; greedy refinement), and silently overriding an
// explicit zero would train a different table than the caller asked for.
func (cfg TrainConfig) applied() TrainConfig {
	if len(cfg.Arms) == 0 {
		cfg.Arms = []string{"heuristic", "maxaccuracy", "minenergy"}
	}
	if cfg.MissWeight == 0 && cfg.EnergyWeight == 0 {
		cfg.MissWeight, cfg.EnergyWeight = 1, 0.05
	}
	return cfg
}

// visit is one recorded Plan-time decision: which arm ran in which state.
type visit struct {
	key string
	arm int
}

// trainRun is one scenario execution's outcome: the decision trace and the
// scalar cost the trace's cells are credited with.
type trainRun struct {
	visits []visit
	cost   float64
	err    error
}

// recordingPolicy is the in-training policy: per Plan it discretises the
// view, asks pick for an arm, records the decision and delegates. It is
// deliberately not registered — training injects it directly into a
// manager, bypassing the name registry.
type recordingPolicy struct {
	arms   []rtm.Policy
	pick   func(key string) int
	visits []visit
}

func (p *recordingPolicy) Name() string { return "learned-trainer" }

func (p *recordingPolicy) Plan(v rtm.View) []rtm.Assignment {
	key := rtm.StateKey(&v)
	arm := p.pick(key)
	p.visits = append(p.visits, visit{key, arm})
	return p.arms[arm].Plan(v)
}

// Train samples cfg.Workloads seeded fleet workloads and trains a learned
// policy selection table over them: a full per-arm sweep (every workload
// under every arm) followed by cfg.Epochs epsilon-greedy refinement
// epochs. Same config, same table, byte for byte, at any worker count —
// the determinism CI pins with a double-train cmp.
func Train(cfg TrainConfig) (*rtm.LearnedTable, TrainReport, error) {
	cfg = cfg.applied()
	if cfg.Workloads <= 0 {
		return nil, TrainReport{}, fmt.Errorf("fleet: training workload count %d must be positive", cfg.Workloads)
	}
	if len(cfg.Arms) < 2 {
		return nil, TrainReport{}, fmt.Errorf("fleet: training needs at least two arms, got %v", cfg.Arms)
	}
	// Written so that NaN fails too: a NaN epsilon would make every
	// refinement plan explore.
	if !(cfg.Epsilon >= 0 && cfg.Epsilon <= 1) {
		return nil, TrainReport{}, fmt.Errorf("fleet: epsilon %g outside [0,1]", cfg.Epsilon)
	}
	// A non-finite weight makes run costs non-finite, which the finished
	// table then refuses to serialise, discarding the whole training run.
	for _, w := range []float64{cfg.MissWeight, cfg.EnergyWeight} {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, TrainReport{}, fmt.Errorf("fleet: reward weights (miss %g, energy %g) must be finite", cfg.MissWeight, cfg.EnergyWeight)
		}
	}
	if cfg.Epochs < 0 {
		return nil, TrainReport{}, fmt.Errorf("fleet: epoch count %d must not be negative", cfg.Epochs)
	}
	// Arms validate fully up front — empty names (a trailing comma in
	// -arms), duplicates and parameterised names would otherwise surface
	// only when the finished table fails to serialise, discarding the
	// whole training run.
	seen := map[string]bool{}
	for _, name := range cfg.Arms {
		if name == "" || strings.Contains(name, ":") {
			return nil, TrainReport{}, fmt.Errorf("fleet: arm %q must be a plain policy name (no parameterised arms)", name)
		}
		if seen[name] {
			return nil, TrainReport{}, fmt.Errorf("fleet: arm %q listed twice", name)
		}
		seen[name] = true
		if _, err := rtm.NewPolicy(name); err != nil {
			return nil, TrainReport{}, fmt.Errorf("fleet: %w", err)
		}
	}
	gen, err := NewGenerator(GeneratorConfig{
		Seed: cfg.Seed, Platforms: cfg.Platforms, Classes: cfg.Classes,
	})
	if err != nil {
		return nil, TrainReport{}, err
	}
	return train(cfg, gen.Generate(cfg.Workloads))
}

// train is Train's training loop over sampled workloads, which it only
// reads; cfg is already validated and defaulted.
func train(cfg TrainConfig, scenarios []Scenario) (*rtm.LearnedTable, TrainReport, error) {
	table := rtm.NewLearnedTable(cfg.Arms)
	rep := TrainReport{
		Workloads: len(scenarios),
		Arms:      append([]string(nil), cfg.Arms...),
		Sweep:     map[string]ArmTrainStats{},
	}

	// Phase 1 — per-arm sweep: run (workload, arm) exhaustively. Every
	// recorder pins one arm, so each visited state gets a clean sample of
	// what that arm costs end to end.
	sweep := make([]trainRun, len(scenarios)*len(cfg.Arms))
	if err := trainAll(cfg.Workers, sweep, func(i int, w *worker) trainRun {
		wl, arm := i/len(cfg.Arms), i%len(cfg.Arms)
		return trainOne(cfg, scenarios[wl], func(string) int { return arm }, w)
	}); err != nil {
		return nil, TrainReport{}, err
	}
	rep.Runs += len(sweep)
	for i, r := range sweep {
		arm := i % len(cfg.Arms)
		for _, vi := range r.visits {
			table.Observe(vi.key, vi.arm, r.cost)
		}
		s := rep.Sweep[cfg.Arms[arm]]
		s.Runs++
		s.MeanCost += (r.cost - s.MeanCost) / float64(s.Runs)
		rep.Sweep[cfg.Arms[arm]] = s
	}

	// Phase 2 — epsilon-greedy refinement: replay the workloads under
	// per-state selection so states reached only under mixed control gain
	// their own cells. Runs read the table frozen (updates apply between
	// epochs, in workload order) and every exploration draw derives from
	// (Seed, epoch, workload), which together make the phase worker-count
	// independent.
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		runs := make([]trainRun, len(scenarios))
		if err := trainAll(cfg.Workers, runs, func(wl int, w *worker) trainRun {
			rnd := rng.New(splitmix64(splitmix64(cfg.Seed+uint64(epoch)) + uint64(wl)))
			return trainOne(cfg, scenarios[wl], func(key string) int {
				if arm := greedyArm(table, key); arm >= 0 && rnd.Float64() >= cfg.Epsilon {
					return arm
				}
				return rnd.Intn(len(cfg.Arms))
			}, w)
		}); err != nil {
			return nil, TrainReport{}, err
		}
		rep.Runs += len(runs)
		for _, r := range runs {
			for _, vi := range r.visits {
				table.Observe(vi.key, vi.arm, r.cost)
			}
		}
	}

	table.Seed = cfg.Seed
	table.MissWeight, table.EnergyWeight = cfg.MissWeight, cfg.EnergyWeight
	table.Finalise()
	rep.States = len(table.States)
	return table, rep, nil
}

// greedyArm returns the index of the cheapest visited arm for a state, or
// -1 when the state is unknown or unvisited (the caller explores).
func greedyArm(t *rtm.LearnedTable, key string) int {
	st := t.States[key]
	if st == nil {
		return -1
	}
	best := -1
	for i, n := range st.Visits {
		if n > 0 && (best < 0 || st.Cost[i] < st.Cost[best]) {
			best = i
		}
	}
	return best
}

// trainAll fills runs[i] with run(i, w) on a pool of workers, then
// surfaces the lowest-index run error, so the reported failure does not
// depend on which worker finished first.
func trainAll(workers int, runs []trainRun, run func(i int, w *worker) trainRun) error {
	forEachRun(workers, len(runs), func(i int, w *worker) { runs[i] = run(i, w) })
	for i := range runs {
		if runs[i].err != nil {
			return fmt.Errorf("fleet: training run %d (%s): %w", i, runs[i].errContext(), runs[i].err)
		}
	}
	return nil
}

// errContext names the failing run for the error message.
func (r *trainRun) errContext() string {
	if len(r.visits) == 0 {
		return "before first plan"
	}
	return fmt.Sprintf("after %d plans", len(r.visits))
}

// trainOne executes one scenario under a recording policy and scores it.
// It runs through the very same runOne path a fleet evaluation uses —
// Scenario.Script.Planner injects the instrumented policy while every
// other execution detail (manager wiring, tick, metric extraction) stays
// shared — so training replays exactly the dynamics the trained table is
// later evaluated on. Arms are instantiated fresh per run, matching the
// one-policy-instance-per-scenario contract every other call site keeps
// (a stateful third-party arm must never be shared across worker
// goroutines). The worker's run state is reused exactly as in
// Runner.Run. The recording policy is
// outside replan elision by construction — it cannot implement the
// sealed rtm seam — so every training run plans fresh and its visit
// trace stays complete.
func trainOne(cfg TrainConfig, s Scenario, pick func(key string) int, w *worker) trainRun {
	rec := &recordingPolicy{arms: make([]rtm.Policy, len(cfg.Arms)), pick: pick}
	for i, name := range cfg.Arms {
		p, err := rtm.NewPolicy(name)
		if err != nil {
			return trainRun{err: err}
		}
		rec.arms[i] = p
	}
	s.Script.Planner = rec
	r := runOne(s, w, false)
	if r.Err != "" {
		return trainRun{visits: rec.visits, err: fmt.Errorf("%s", r.Err)}
	}
	return trainRun{
		visits: rec.visits,
		cost:   cfg.MissWeight*missRate(r) + cfg.EnergyWeight*(r.AvgPowerMW/1000),
	}
}
