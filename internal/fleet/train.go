package fleet

import (
	"fmt"
	"math"
	"slices"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/rtm"
)

// This file is the offline trainer behind the "learned:<table.json>"
// policy: it runs seeded fleet scenarios under every base policy (arm),
// records which discretised planning states each run visited, scores the
// run on a miss-rate + energy reward, and credits the score to every
// (state, arm) cell the run touched. A pure per-arm sweep seeds the table;
// epsilon-greedy epochs then refine it by re-running the workloads with
// per-state arm selection, so cells that only ever appear mid-run under
// mixed control get their own evidence. The policy registry supplies the
// arms, and every run plans through the selector a trained table runs as
// (rtm.NewArmSelector), its choice made by the trainer. A run is a pure
// function of its workload and the arms its selector picks, so a
// refinement run whose decisions repeat a run this training already
// simulated is credited from that run instead of simulated again
// (replay). What is left is engine-bound: a GOMAXPROCS=1 profile of a
// 512-workload, two-epoch Train puts about 92 % of its time under the
// engine's event loop, controller callbacks included, and about 12 % in
// the selector's plans, which run in place over the manager's view.

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
	Workloads int `json:"workloads"`
	// Runs counts the runs whose decision traces the table was credited
	// with: every workload under every arm, plus one per workload per
	// refinement epoch. A refinement run that would repeat, decision for
	// decision, a run this training simulated earlier is credited from
	// that run without being simulated; it still counts here.
	Runs int `json:"runs"`
	// Replayed counts the refinement runs credited from a recorded run
	// without being simulated; Runs - Replayed runs were simulated.
	Replayed int      `json:"replayed"`
	States   int      `json:"states"`
	Arms     []string `json:"arms"`
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
	state rtm.State
	arm   int
}

// trainRun is one scenario execution's outcome: the decision trace and the
// scalar cost the trace's cells are credited with. replayed marks a run
// credited from a recorded run rather than simulated.
type trainRun struct {
	visits   []visit
	cost     float64
	err      error
	replayed bool
}

// Train samples cfg.Workloads seeded fleet workloads and trains a learned
// policy selection table over them: a full per-arm sweep (every workload
// under every arm) followed by cfg.Epochs epsilon-greedy refinement
// epochs. Same config, same table, byte for byte, at any worker count —
// the determinism CI pins with a double-train cmp.
//
// The arms must keep the rule a learned table's arms keep (plain,
// registered, distinct names), which Train checks before it simulates.
//
// A training run is a pure function of its workload and of the arm its
// selector picks at each plan: every run gets fresh arm instances
// on a worker stack that carries nothing from one run to the next. So a
// refinement run is first walked against the runs of its workload this
// call has simulated (the sweep runs, then each simulated refinement run)
// with the same exploration stream. At each plan the pick is made for the
// state the surviving recorded runs share there, and only those that
// picked the same arm survive; a survivor that ends at that plan is the
// run, and its trace and cost are credited without simulating. When none
// survives, the exploration stream restarts from its seed and the run is
// simulated. The table and report are those of simulating every run.
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
	// The arms keep the rule a learned table's arms keep, checked here by
	// building the selector every run plans through: an empty name (a
	// trailing comma in -arms), a duplicate or a parameterised name would
	// otherwise surface only when the finished table fails to serialise,
	// discarding the whole training run.
	if _, err := rtm.NewArmSelector(trainerName, cfg.Arms, nil); err != nil {
		return nil, TrainReport{}, fmt.Errorf("fleet: %w", err)
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
	// selector pins one arm, so each visited state gets a clean sample of
	// what that arm costs end to end.
	sweep := make([]trainRun, len(scenarios)*len(cfg.Arms))
	if err := trainAll(cfg.Workers, sweep, func(i int, w *worker) trainRun {
		wl, arm := i/len(cfg.Arms), i%len(cfg.Arms)
		return trainOne(cfg, &scenarios[wl], func(rtm.State) int { return arm }, w)
	}); err != nil {
		return nil, TrainReport{}, err
	}
	rep.Runs += len(sweep)
	for i, r := range sweep {
		arm := i % len(cfg.Arms)
		for _, vi := range r.visits {
			table.Observe(vi.state, vi.arm, r.cost)
		}
		s := rep.Sweep[cfg.Arms[arm]]
		s.Runs++
		s.MeanCost += (r.cost - s.MeanCost) / float64(s.Runs)
		rep.Sweep[cfg.Arms[arm]] = s
	}

	// Phase 2 — epsilon-greedy refinement: re-run the workloads under
	// per-state selection so states reached only under mixed control gain
	// their own cells. Runs read the table frozen (updates apply between
	// epochs, in workload order) and every exploration draw derives from
	// (Seed, epoch, workload), which together make the phase worker-count
	// independent. hist[wl] holds the runs of workload wl simulated so far
	// (clipped, so an append never writes into the next workload's sweep
	// runs); a simulated run joins it only after its epoch, so what a run
	// is checked against does not depend on the worker count either.
	hist := make([][]trainRun, len(scenarios))
	for wl := range hist {
		hist[wl] = slices.Clip(sweep[wl*len(cfg.Arms) : (wl+1)*len(cfg.Arms)])
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		runs := make([]trainRun, len(scenarios))
		if err := trainAll(cfg.Workers, runs, func(wl int, w *worker) trainRun {
			seed := rng.Next(rng.Next(cfg.Seed+uint64(epoch)) + uint64(wl))
			rnd := rng.New(seed)
			pick := func(s rtm.State) int {
				if arm := table.Greedy(s); arm >= 0 && rnd.Float64() >= cfg.Epsilon {
					return arm
				}
				return rnd.Intn(len(cfg.Arms))
			}
			if r := replay(hist[wl], pick); r.replayed {
				return r
			}
			rnd = rng.New(seed)
			return trainOne(cfg, &scenarios[wl], pick, w)
		}); err != nil {
			return nil, TrainReport{}, err
		}
		rep.Runs += len(runs)
		for wl, r := range runs {
			for _, vi := range r.visits {
				table.Observe(vi.state, vi.arm, r.cost)
			}
			if r.replayed {
				rep.Replayed++
			} else {
				hist[wl] = append(hist[wl], r)
			}
		}
	}

	table.Seed = cfg.Seed
	table.MissWeight, table.EnergyWeight = cfg.MissWeight, cfg.EnergyWeight
	table.Finalise()
	rep.States = len(table.States)
	return table, rep, nil
}

// replay walks recs, runs of one workload, in lockstep with a run that
// picks its arms with pick, and returns the recorded run it would repeat.
// Runs that picked the same arms so far reached the same state, so pick is
// asked once per plan, for the state the first survivor recorded there,
// drawing from its stream exactly as the run would; only survivors that
// picked the same arm stay. A survivor with no further plan is the run
// itself, returned marked replayed; once no recorded run survives, replay
// returns the zero trainRun.
func replay(recs []trainRun, pick func(rtm.State) int) trainRun {
	live := make([]int, len(recs))
	for j := range live {
		live[j] = j
	}
	for i := 0; len(live) > 0; i++ {
		first := &recs[live[0]]
		if len(first.visits) == i {
			r := *first
			r.replayed = true
			return r
		}
		arm := pick(first.visits[i].state)
		n := 0
		for _, j := range live {
			if v := recs[j].visits; len(v) > i && v[i].arm == arm {
				live[n] = j
				n++
			}
		}
		live = live[:n]
	}
	return trainRun{}
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

// trainerName names the selector every training run plans through.
const trainerName = "learned-trainer"

// trainOne executes one scenario under an exploring selector and scores
// it. The selector is the one a trained table runs as (rtm.NewArmSelector),
// over fresh arm instances per run, matching the
// one-policy-instance-per-scenario contract every other call site keeps (a
// stateful third-party arm must never be shared across worker goroutines),
// with pick as its choice: each plan asks pick for an arm and records the
// decision. The manager never elides its replans, so the visit trace is
// complete, and the chosen arm plans over the manager's view in place. The
// run goes through the very same runOne path a fleet evaluation uses —
// Scenario.Script.Planner injects the selector while every other execution
// detail (manager wiring, tick, metric extraction) stays shared — so
// training replays exactly the dynamics the trained table is later
// evaluated on. The worker's run state is reused exactly as in Runner.Run.
func trainOne(cfg TrainConfig, s *Scenario, pick func(rtm.State) int, w *worker) trainRun {
	var visits []visit
	sel, err := rtm.NewArmSelector(trainerName, cfg.Arms, func(st rtm.State) int {
		arm := pick(st)
		visits = append(visits, visit{st, arm})
		return arm
	})
	if err != nil {
		return trainRun{err: err}
	}
	planned := *s
	planned.Script.Planner = sel
	r := runOne(&planned, w, false)
	if r.Err != "" {
		return trainRun{visits: visits, err: fmt.Errorf("%s", r.Err)}
	}
	return trainRun{
		visits: visits,
		cost:   cfg.MissWeight*missRate(r) + cfg.EnergyWeight*(r.AvgPowerMW/1000),
	}
}
