// Package hotbench holds the hot-path benchmark rows: one body per
// measured layer of a fleet run, written once and driven two ways.
// BenchmarkRows runs them as Go benchmarks, and the root package's
// allocation test gates each row's allocs/op against the budget recorded
// in BENCH_fleet.json, which that test's -update flag rewrites.
//
// Every row measures the workload a fleet run pays for: scenarios sampled
// across the whole platform catalog, the flagship SoC hosting
// sim.BenchApps at the fleet's tick, and single-policy odroid-xu3 records
// for the shard stream.
package hotbench

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// Row is one hot-path measurement. Setup builds the row's state and
// returns its op, the unit that ns/op and allocs/op are counted per.
// Every measurement runs the op once before counting, so first-use
// growth of scratch buffers and pools stays out of the numbers.
type Row struct {
	Name  string
	Setup func(tb testing.TB) (op func())
}

// Bench runs the row as a benchmark body. The untimed first op makes
// allocs/op at -benchtime 1x equal the steady state.
func (r Row) Bench(b *testing.B) {
	op := r.Setup(b)
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
}

// Rows returns the table, with one policy-plan row per registered policy.
// generate comes last. Placed first, the garbage it leaves made the
// collector add a stray allocation to engine-run's -benchtime 1x reading
// in 18 of 40 gate runs; placed last, the gate's 1x check misfires no
// more often than it did without the row.
func Rows() []Row {
	rows := []Row{
		{"engine-run", engineRun},
		{"engine-new", engineNew},
		{"engine-run-managed", engineRunManaged},
		{"replan", replan},
		{"replan-elided", replanElided},
	}
	for _, name := range rtm.Policies() {
		rows = append(rows, Row{"policy-plan/" + name, policyPlan(name)})
	}
	return append(rows, Row{"stream-append", streamAppend}, Row{"stream-read", streamRead}, Row{"generate", generate})
}

// engineRun is the steady-state engine cost a fleet worker pays per
// scenario: one uncontrolled 10-simulated-second run on an engine Reset
// in place, as each worker reuses its engine. Construction is engine-new.
func engineRun(tb testing.TB) func() {
	cfg := sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps()}
	e, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := e.Reset(cfg); err != nil {
			tb.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			tb.Fatal(err)
		}
	}
}

// engineNew is the same run with construction included: the cold-start
// cost engine-run shows Reset amortising away.
func engineNew(tb testing.TB) func() {
	return func() {
		e, err := sim.New(sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps()})
		if err != nil {
			tb.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			tb.Fatal(err)
		}
	}
}

// engineRunManaged is engine-run under a heuristic manager, at the
// fleet's tick and with its latency log: the shape of every fleet run,
// whose worker Resets one engine and one manager per scenario. Unlike
// engine-run it reaches the controller callbacks, replans and the
// deadline-miss path.
func engineRunManaged(tb testing.TB) func() {
	reqs := benchReqs()
	mgr := rtm.NewManager(reqs)
	cfg := sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps(), Controller: mgr, TickS: fleet.TickS, LogLatencies: true}
	e, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		mgr.Reset(reqs)
		if err := e.Reset(cfg); err != nil {
			tb.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchReqs are the manager requirements over sim.BenchApps' DNNs.
func benchReqs() map[string]rtm.Requirement {
	return map[string]rtm.Requirement{
		"dnn1": {MinAccuracy: 0.70, Priority: 1},
		"dnn2": {MinAccuracy: 0.70, Priority: 2},
		"dnn3": {Priority: 1},
	}
}

// managedEngine returns a heuristic manager and the engine it controls,
// two simulated seconds in, so placements and thermal state are
// non-trivial.
func managedEngine(tb testing.TB) (*rtm.Manager, *sim.Engine) {
	mgr := rtm.NewManager(benchReqs())
	e, err := sim.New(sim.Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       sim.BenchApps(),
		Controller: mgr,
		TickS:      fleet.TickS,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		tb.Fatal(err)
	}
	return mgr, e
}

// replan is the full manager path against a live engine: view build,
// policy plan and actuation. Each op re-installs the policy first, which
// moves the planning fingerprint, or every op after the first on a
// quiescent engine would be elided.
func replan(tb testing.TB) func() {
	mgr, e := managedEngine(tb)
	pol, err := rtm.NewPolicy(rtm.DefaultPolicy)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		mgr.SetPolicy(pol)
		mgr.Replan(e)
	}
}

// replanElided is the fingerprint-stable fast path: once the first op
// reaches the actuated fixed point, a Replan on a quiescent engine is a
// fingerprint compare and a counter bump.
func replanElided(tb testing.TB) func() {
	mgr, e := managedEngine(tb)
	return func() { mgr.Replan(e) }
}

// policyPlan is one Plan by the named policy over the manager's last
// planning input.
func policyPlan(name string) func(tb testing.TB) func() {
	return func(tb testing.TB) func() {
		p, err := rtm.NewPolicy(name)
		if err != nil {
			tb.Fatal(err)
		}
		mgr, _ := managedEngine(tb)
		v := mgr.LastView()
		return func() {
			if plan := p.Plan(v); len(plan) == 0 {
				tb.Fatal("empty plan")
			}
		}
	}
}

// streamLo is the first scenario index of the stream rows' records: ten
// digits, so every record's ID encodes at the same width.
const streamLo = 1_000_000_000

// streamRecords returns a stream header and valid records for scenarios
// [streamLo, streamLo+256) of a single-policy odroid-xu3 fleet at seed 1:
// one real run's result, latencies kept, relabelled with each scenario's
// ID and seed.
func streamRecords(tb testing.TB) (fleet.StreamHeader, []fleet.Result) {
	cfg := fleet.GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"}}
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	scens := gen.GenerateRange(streamLo, streamLo+256)
	tmpl := fleet.RunOne(scens[0])
	recs := make([]fleet.Result, len(scens))
	for i, s := range scens {
		recs[i] = tmpl
		recs[i].ID, recs[i].Seed = s.ID, s.Seed
	}
	hdr := fleet.StreamHeader{Config: cfg, Total: 2 * streamLo, Lo: streamLo, Hi: streamLo + len(recs)}
	return hdr, recs
}

// streamAppend is StreamWriter.Append: one record encoded and flushed to
// io.Discard. A completed writer is replaced by a fresh one, once every
// 256 ops, so that cost is amortised below one allocation per op.
func streamAppend(tb testing.TB) func() {
	hdr, recs := streamRecords(tb)
	var sw *fleet.StreamWriter
	return func() {
		if sw == nil || sw.Complete() {
			var err error
			if sw, err = fleet.NewStreamWriter(io.Discard, hdr); err != nil {
				tb.Fatal(err)
			}
		}
		if err := sw.Append(recs[sw.Next()-hdr.Lo]); err != nil {
			tb.Fatal(err)
		}
	}
}

// streamRead is StreamReader.Read over the records stream-append writes:
// one line read, decoded and validated. A drained reader is replaced by a
// fresh one, once every 256 ops.
func streamRead(tb testing.TB) func() {
	hdr, recs := streamRecords(tb)
	var buf bytes.Buffer
	sw, err := fleet.NewStreamWriter(&buf, hdr)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	open := func() *fleet.StreamReader {
		sr, err := fleet.NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			tb.Fatal(err)
		}
		return sr
	}
	sr := open()
	return func() {
		_, err := sr.Read()
		if errors.Is(err, io.EOF) {
			sr = open()
			_, err = sr.Read()
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// generate is scenario sampling: GenerateRange over the same 64
// single-policy scenarios on every op, drawn from every catalog platform
// and class, so allocs/op is exact.
func generate(tb testing.TB) func() {
	gen, err := fleet.NewGenerator(fleet.GeneratorConfig{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if len(gen.GenerateRange(0, 64)) != 64 {
			tb.Fatal("short range")
		}
	}
}
