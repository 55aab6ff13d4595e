package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"github.com/emlrtm/emlrtm/internal/fleet"
)

// shardRoundWorkloads is the workload count of one shard-roundtrip round
// (×3 policy runs). Rounds bound the memory a round trip holds: every
// result keeps its raw latency samples, as fleetsim does by default.
const shardRoundWorkloads = 512

// shardRoundsPerSecond is how many rounds one second of -seconds budget buys.
const shardRoundsPerSecond = 1

// ident is the identity a merged result must carry for its scenario index.
type ident struct {
	ID       int
	Seed     uint64
	Class    fleet.Class
	Platform string
	Policy   string
	Name     string
}

// shard-roundtrip: odroid-xu3 and jetson-nano, three policies, latencies
// kept. Each round writes shard 0/2 then 1/2 with Runner.ResumeShard as
// NDJSON streams, reads both back with ReadShardFile and merges them. Stream
// encoding, decoding and pooled-latency aggregation are about half its time,
// a layer no other workload touches. Rounds draw their own seeds from -seed.
func runShardRoundtrip(b *bench) error {
	platforms := []string{"odroid-xu3", "jetson-nano"}
	rounds := b.size(shardRoundsPerSecond, 1)
	perRound := shardRoundWorkloads
	if b.quick {
		perRound = 24
	}
	cfgs := make([]fleet.GeneratorConfig, rounds)
	for r := range cfgs {
		cfgs[r] = fleet.GeneratorConfig{Seed: b.seed<<20 + uint64(r), Platforms: platforms, Policies: policies}
	}
	// Set-up derives the identity of every result the round trips must
	// deliver, straight from the generator.
	var want [][]ident
	generate := func(gen rangeFunc) error {
		want = make([][]ident, len(cfgs))
		for r, cfg := range cfgs {
			g, err := fleet.NewGenerator(cfg)
			if err != nil {
				return err
			}
			for _, s := range gen(g, 0, g.RunCount(perRound)) {
				want[r] = append(want[r], ident{s.ID, s.Seed, s.Class, s.Platform, s.Policy, s.Script.Name})
			}
		}
		return nil
	}
	if err := b.setup(generate); err != nil {
		return err
	}

	o := newOutcome()
	for r, cfg := range cfgs {
		dir, err := freshDir(b.workdir, r)
		if err != nil {
			return err
		}
		var written [2]fleet.ShardResult
		var merged []fleet.Result
		var rep fleet.Report
		// Each shard write's tail and each read is a calibrated segment of
		// its own; the merge is the span's last.
		err = b.timed(true, func() (int, error) {
			for k := range written {
				runner := &fleet.Runner{Workers: 1, Progress: b.progressClock()}
				var err error
				if written[k], err = runner.ResumeShard(shardPath(dir, k), cfg, perRound, k, 2); err != nil {
					return 0, err
				}
				b.clk.mark(segOther, false)
			}
			var read [2]fleet.ShardResult
			for k := range read {
				var err error
				if read[k], err = fleet.ReadShardFile(shardPath(dir, k)); err != nil {
					return 0, err
				}
				b.clk.mark(segOther, true)
			}
			var err error
			rep, merged, err = fleet.Merge(read[0], read[1])
			return len(merged), err
		})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(merged, append(written[0].Results, written[1].Results...)) {
			b.fail("round %d: merged shard files differ from the results that were written", r)
		}
		checkIdents(b, r, merged, want[r])
		o.add(merged, rep)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.record(o)

	if b.tr == nil {
		return nil
	}
	traced := newOutcome()
	for r, cfg := range cfgs {
		merged, rep, err := b.tracedRound(r, cfg, perRound)
		if err != nil {
			return err
		}
		traced.add(merged, rep)
	}
	b.sameOutcome(o, traced)
	return nil
}

// tracedRound runs one round with the shard writes rebuilt from public
// calls, so stream encoding is timed apart from simulation: each shard's
// scenarios run through fleet.Runner whose OnResult appends to a
// StreamWriter over the shard file, as ResumeShard does for a fresh file.
func (b *bench) tracedRound(r int, cfg fleet.GeneratorConfig, workloads int) ([]fleet.Result, fleet.Report, error) {
	t := b.tr
	dir, err := freshDir(b.workdir, r)
	if err != nil {
		return nil, fleet.Report{}, err
	}
	defer os.RemoveAll(dir)
	var rep fleet.Report
	var merged []fleet.Result
	if err := b.tracedCall(func() error {
		for k := 0; k < 2; k++ {
			if err := b.tracedShardWrite(shardPath(dir, k), cfg, workloads, k); err != nil {
				return err
			}
		}
		var read [2]fleet.ShardResult
		for k := range read {
			sp := t.begin("fleet.shard_read", -1, -1)
			var err error
			read[k], err = fleet.ReadShardFile(shardPath(dir, k))
			t.end(sp)
			if err != nil {
				return err
			}
		}
		sp := t.begin("fleet.merge", -1, -1)
		defer t.end(sp)
		var err error
		rep, merged, err = fleet.Merge(read[0], read[1])
		return err
	}); err != nil {
		return nil, fleet.Report{}, err
	}
	for k := 0; k < 2; k++ {
		fi, err := os.Stat(shardPath(dir, k))
		if err != nil {
			return nil, fleet.Report{}, err
		}
		b.streamBytes += fi.Size()
	}
	for _, res := range merged {
		b.latencySamples += len(res.Latencies)
	}
	return merged, rep, nil
}

// tracedShardWrite writes shard index of 2 to path. Each run gets a "run"
// span from the previous record's end to its own, with the record's append
// as a "fleet.stream_append" child, so the run's self time is simulation.
func (b *bench) tracedShardWrite(path string, cfg fleet.GeneratorConfig, workloads, index int) error {
	t := b.tr
	g := t.begin("fleet.generate", -1, -1)
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		return err
	}
	total := gen.RunCount(workloads)
	lo, hi := fleet.ShardRange(total, index, 2)
	scens := gen.GenerateRange(lo, hi)
	t.end(g)

	w := t.begin("fleet.shard_write", -1, -1)
	defer t.end(w)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sw, err := fleet.NewStreamWriter(f, fleet.StreamHeader{Config: cfg, Total: total, Lo: lo, Hi: hi})
	if err != nil {
		return err
	}
	var appendErr error
	prev := t.now()
	runner := &fleet.Runner{Workers: 1, OnResult: func(_ int, res fleet.Result) {
		start := t.now()
		if err := sw.Append(res); err != nil && appendErr == nil {
			appendErr = err
		}
		end := t.now()
		run := t.add("run", w, res.ID, prev, end)
		t.add("fleet.stream_append", run, res.ID, start, end)
		prev = end
	}}
	runner.Run(scens)
	if appendErr != nil {
		return appendErr
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func shardPath(dir string, index int) string {
	return filepath.Join(dir, fleet.StreamFileName(index, 2))
}

// freshDir returns an empty scratch directory for round r.
func freshDir(workdir string, r int) (string, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("shards-%d", r))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// checkIdents requires merged results to carry, index by index, the
// identities the generator assigns.
func checkIdents(b *bench, round int, merged []fleet.Result, want []ident) {
	if len(merged) != len(want) {
		b.fail("round %d: merged %d results, want %d", round, len(merged), len(want))
		return
	}
	for i, res := range merged {
		if got := (ident{res.ID, res.Seed, res.Class, res.Platform, res.Policy, res.Name}); got != want[i] {
			b.fail("round %d: result %d is %+v, want %+v", round, i, got, want[i])
			return
		}
	}
}
