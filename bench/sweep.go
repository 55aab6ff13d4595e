package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/rtm"
)

// Workload counts per second of -seconds budget, sized so each workload's
// timed calls take about that long on a quiet 2-vCPU host. They fix the
// work, and with it every simulated result, for a given seed and budget.
// train spends a large share on held-out runs because which held-out
// workloads a seed draws decides most of its miss_rate's seed-to-seed
// spread.
const (
	engineBoundPerSecond = 85   // flagship workloads (×3 policy runs)
	planBoundPerSecond   = 1300 // odroid workloads (×3 policy runs)
	trainPerSecond       = 300  // training workloads (×5 runs: 3 arms + 2 epochs)
	evalPerSecond        = 1600 // held-out runs of the trained tables
)

// trainRoundWorkloads is the workload count of one fleet.Train call.
const trainRoundWorkloads = 512

// planBoundDistinct caps how many distinct workloads plan-bound holds in
// memory; the rest of its budget repeats passes over them.
const planBoundDistinct = 4096

// engine-bound: flagship-soc only. Its runs carry about 6000 engine events
// each, so the event loop's own time is most of a run and planning a small
// share: engine work (advance, refresh, thermal, event notes) shows here.
// Runs are costly and vary widely, so the budget buys one pass over as many
// distinct workloads as possible, which keeps the seed-to-seed spread low.
func runEngineBound(b *bench) error {
	n := b.size(engineBoundPerSecond, 2)
	return runSweep(b, []string{"flagship-soc"}, n, 1)
}

// plan-bound: odroid-xu3 only. Its runs carry about 190 events each, so
// controller callbacks and replanning are a large share of a run, and
// generating twelve thousand scenarios makes set-up a real cost. Replan,
// elision and plan-memo changes show here; engine-only changes less. Runs
// are cheap, so the budget buys several passes over a fixed set.
func runPlanBound(b *bench) error {
	total := b.size(planBoundPerSecond, 24)
	n := min(total, planBoundDistinct)
	return runSweep(b, []string{"odroid-xu3"}, n, max(1, (total+n/2)/n))
}

// runSweep generates workloads × 3 policy runs on platforms during set-up,
// then times passes of fleet.Runner over them plus fleet.Aggregate, as
// fleetsim -nolat does at one worker. Every pass must reproduce the first.
func runSweep(b *bench, platforms []string, workloads, passes int) error {
	cfg := fleet.GeneratorConfig{Seed: b.seed, Platforms: platforms, Policies: policies}
	var scens []fleet.Scenario
	generate := func(gen rangeFunc) error {
		g, err := fleet.NewGenerator(cfg)
		if err != nil {
			return err
		}
		scens = gen(g, 0, g.RunCount(workloads))
		return nil
	}
	if err := b.setup(generate); err != nil {
		return err
	}

	var first *outcome
	for p := 0; p < passes; p++ {
		var results []fleet.Result
		var rep fleet.Report
		_ = b.timed(true, func() (int, error) {
			runner := &fleet.Runner{Workers: 1, DropLatencies: true, Progress: b.progressClock()}
			results = runner.Run(scens)
			rep = fleet.Aggregate(cfg.Seed, results)
			return len(results), nil
		})
		o := newOutcome()
		o.add(results, rep)
		if first == nil {
			first = o
			b.record(o)
			continue
		}
		b.attempted += o.runs
		b.failed += o.errs
		if o.hex() != first.hex() {
			b.fail("pass %d outcome_sha256 %s differs from pass 0 %s", p, o.hex(), first.hex())
		}
	}

	if b.tr == nil {
		return nil
	}
	t := b.tr
	g := t.begin("fleet.generate", -1, -1)
	if err := generate(plainRange); err != nil {
		return err
	}
	t.end(g)
	for p := 0; p < passes; p++ {
		var traced []fleet.Result
		var trep fleet.Report
		b.tracedCall(func() error {
			traced = t.runAll(scens)
			a := t.begin("fleet.aggregate", -1, -1)
			trep = fleet.Aggregate(cfg.Seed, traced)
			t.end(a)
			return nil
		})
		o := newOutcome()
		o.add(traced, trep)
		b.sameOutcome(first, o)
	}
	return nil
}

// sameOutcome requires the traced phase to reproduce the untraced outcome.
func (b *bench) sameOutcome(untraced, traced *outcome) {
	if got, want := traced.hex(), untraced.hex(); got != want {
		b.fail("traced outcome_sha256 %s differs from untraced %s", got, want)
	}
}

// train: rounds of fleet.Train{Workloads: 512, Epochs: 2, Epsilon: 0.1}
// over odroid-xu3 and jetson-nano workloads at one worker, each round with
// its own seed drawn from -seed. A Train call has no hook for reference
// chunks, so its calibration comes from the runs around it; rounds of about
// one second keep those close. The training recorder sits outside both
// plan-reuse tiers, so every replan runs fresh: the reuse-off counterpart of
// plan-bound. Flagship is left out because its runs cost ~20× the others',
// so how many flagship workloads a seed draws would dominate the run-to-run
// spread; engine-bound covers it. Train exposes no per-run hook, so the
// per-run latency and simulated metrics come from running each round's
// trained table on held-out workloads right after it; interleaving those
// runs with training spreads the latency samples over the whole run.
func runTrain(b *bench) error {
	platforms := []string{"odroid-xu3", "jetson-nano"}
	workloads, held, rounds := 8, 16, 1
	if !b.quick {
		workloads = trainRoundWorkloads
		rounds = max(1, int(math.Round(trainPerSecond*b.seconds/trainRoundWorkloads)))
		held = int(evalPerSecond*b.seconds) / rounds
	}
	rs := make([]trainRound, rounds)
	for r := range rs {
		seed := b.seed<<20 + uint64(r)
		rs[r].train = fleet.TrainConfig{Seed: seed, Workloads: workloads, Workers: 1, Platforms: platforms, Epochs: 2, Epsilon: 0.1}
		rs[r].gen = fleet.GeneratorConfig{Seed: seed, Platforms: platforms}
	}
	// Held-out workloads are the next ones of the generator Train samples
	// from: scenario i depends only on (seed, i), so none was trained on.
	if err := b.setup(func(gen rangeFunc) error {
		for r := range rs {
			g, err := fleet.NewGenerator(rs[r].gen)
			if err != nil {
				return err
			}
			rs[r].held = gen(g, workloads, workloads+held)
		}
		return nil
	}); err != nil {
		return err
	}

	o := newOutcome()
	tables := sha256.New()
	for r := range rs {
		rd := &rs[r]
		var table *rtm.LearnedTable
		var rep fleet.TrainReport
		err := b.timed(true, func() (int, error) {
			var err error
			table, rep, err = fleet.Train(rd.train)
			return rep.Runs, err
		})
		if err != nil {
			return err
		}
		b.attempted += rep.Runs
		if rd.raw, rd.table, err = roundTripTable(table); err != nil {
			return err
		}
		tables.Write(rd.raw)

		var results []fleet.Result
		var agg fleet.Report
		if err := b.timed(false, func() (int, error) {
			scens, err := withPlanner(rd.held, rd.table)
			if err != nil {
				return 0, err
			}
			runner := &fleet.Runner{Workers: 1, DropLatencies: true, Progress: b.progressClock()}
			results = runner.Run(scens)
			agg = fleet.Aggregate(rd.gen.Seed, results)
			return len(results), nil
		}); err != nil {
			return err
		}
		o.add(results, agg)
	}
	b.printf("table_sha256 %x\n", tables.Sum(nil))
	b.record(o)

	if b.tr == nil {
		return nil
	}
	t := b.tr
	traced := newOutcome()
	for r := range rs {
		rd := &rs[r]
		var again *rtm.LearnedTable
		if err := b.tracedCall(func() error {
			sp := t.begin("fleet.train", -1, -1)
			defer t.end(sp)
			var err error
			again, _, err = fleet.Train(rd.train)
			return err
		}); err != nil {
			return err
		}
		if raw, err := again.MarshalBytes(); err != nil || !bytes.Equal(raw, rd.raw) {
			b.fail("round %d: traced training produced a different table (%v)", r, err)
		}
		var results []fleet.Result
		var agg fleet.Report
		if err := b.tracedCall(func() error {
			scens, err := withPlanner(rd.held, rd.table)
			if err != nil {
				return err
			}
			results = t.runAll(scens)
			a := t.begin("fleet.aggregate", -1, -1)
			agg = fleet.Aggregate(rd.gen.Seed, results)
			t.end(a)
			return nil
		}); err != nil {
			return err
		}
		traced.add(results, agg)
	}
	b.sameOutcome(o, traced)
	return nil
}

// trainRound is one Train call and the held-out runs of its table.
type trainRound struct {
	train fleet.TrainConfig
	gen   fleet.GeneratorConfig // what Train samples from
	held  []fleet.Scenario
	raw   []byte            // the trained table, serialised
	table *rtm.LearnedTable // the table read back from raw
}

// roundTripTable serialises a trained table, reads it back through
// rtm.ReadLearnedTable (which validates it) and requires the reloaded table
// to serialise to the same bytes.
func roundTripTable(t *rtm.LearnedTable) ([]byte, *rtm.LearnedTable, error) {
	raw, err := t.MarshalBytes()
	if err != nil {
		return nil, nil, err
	}
	loaded, err := rtm.ReadLearnedTable(raw)
	if err != nil {
		return nil, nil, err
	}
	again, err := loaded.MarshalBytes()
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(again, raw) {
		return nil, nil, fmt.Errorf("learned table changed across a write/read round trip")
	}
	return raw, loaded, nil
}

// withPlanner copies scenarios, giving each its own learned-policy instance
// over table.
func withPlanner(scens []fleet.Scenario, table *rtm.LearnedTable) ([]fleet.Scenario, error) {
	out := append([]fleet.Scenario(nil), scens...)
	for i := range out {
		p, err := rtm.NewLearnedPolicy("learned:trained", table)
		if err != nil {
			return nil, err
		}
		out[i].Script.Planner = p
	}
	return out, nil
}
