// Package hotbench holds the hot-path benchmark rows: one body per
// measured layer of a fleet run, written once and driven two ways.
// BenchmarkRows runs them as Go benchmarks, and the root package's
// allocation test gates each row's allocs/op against the budget recorded
// in BENCH_fleet.json, which that test's -update flag rewrites.
//
// Every row measures the workload a fleet run pays for: scenarios sampled
// across the whole platform catalog, the flagship SoC hosting
// sim.BenchApps at the fleet's tick, single-policy odroid-xu3 records
// for the shard stream, and an odroid-xu3 and jetson-nano policy sweep
// with latencies kept for aggregation.
package hotbench

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Row is one hot-path measurement. Setup builds the row's state and
// returns its op, the unit that ns/op and allocs/op are counted per.
// Every measurement runs the op once before counting, so first-use
// growth of scratch buffers and pools stays out of the numbers. Work,
// set on the rows whose op is one managed engine run, builds the row's
// state, runs the op once and returns its work counts, which the
// allocation gate pins exactly.
type Row struct {
	Name  string
	Setup func(tb testing.TB) (op func())
	Work  func(tb testing.TB) Work
}

// Work is what one managed engine run did: the engine's steps by kind,
// thermal steps and controller callbacks, and the manager's replans,
// elided ones included. Each count is a pure function of the run.
type Work struct {
	sim.Work
	rtm.PlanStats
}

// runRow is a row whose op is one managed engine run: setup returns the
// run, which returns the engine it ran on and the manager that ran it.
func runRow(name string, setup func(tb testing.TB) (run func() (*sim.Engine, *rtm.Manager))) Row {
	return Row{
		Name: name,
		Setup: func(tb testing.TB) func() {
			run := setup(tb)
			return func() { run() }
		},
		Work: func(tb testing.TB) Work {
			e, mgr := setup(tb)()
			return Work{Work: e.Work(), PlanStats: mgr.PlanStats()}
		},
	}
}

// Bench runs the row as a benchmark body. The untimed first op makes
// allocs/op at -benchtime 1x equal the steady state.
//
//detlint:allow deadexport the allocs gate and this package's benchmarks share the harness from their tests
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
// The generation rows come last. Placed first, the garbage generate
// left made the collector add a stray allocation to engine-run's
// -benchtime 1x reading in 18 of 40 gate runs; placed last, the gate's
// 1x check misfires no more often than it did without the row.
//
//detlint:allow deadexport the allocs gate and this package's benchmarks share the harness from their tests
func Rows() []Row {
	rows := []Row{
		{Name: "engine-run", Setup: engineRun},
		{Name: "engine-new", Setup: engineNew},
		runRow("engine-run-managed", engineRunManaged),
		runRow("stack-run", stackRun()),
		runRow("stack-run-faulty", stackRun(fleet.ClassFaulty)),
		{Name: "replan", Setup: replan},
		{Name: "replan-elided", Setup: replanElided},
	}
	for _, name := range rtm.Policies() {
		rows = append(rows, Row{Name: "policy-plan/" + name, Setup: policyPlan(name)})
	}
	return append(rows,
		Row{Name: "stream-append", Setup: streamAppend}, Row{Name: "stream-read", Setup: streamRead},
		Row{Name: "aggregate", Setup: aggregate}, Row{Name: "generate", Setup: generate()},
		Row{Name: "generate-policies", Setup: generate("heuristic", "maxaccuracy", "minenergy")})
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
// fleet's tick: the shape of every fleet run,
// whose worker Resets one engine and one manager per scenario. Unlike
// engine-run it reaches the controller callbacks, replans and the
// deadline-miss path.
func engineRunManaged(tb testing.TB) func() (*sim.Engine, *rtm.Manager) {
	reqs := benchReqs()
	mgr := rtm.NewManager(reqs)
	cfg := sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps(), Controller: mgr, TickS: fleet.TickS}
	e, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return func() (*sim.Engine, *rtm.Manager) {
		mgr.Reset(reqs)
		if err := e.Reset(cfg); err != nil {
			tb.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			tb.Fatal(err)
		}
		return e, mgr
	}
}

// stackRun is one whole fleet run as a worker makes it:
// workload.Stack.Run of the first 3-DNN odroid-xu3 workload at seed 1,
// sampled from classes (every class when none), on a reused Stack, so
// allocs/op counts what every run allocates beyond the reused engine,
// manager and controller. Over every class that workload is a bursty run;
// the faulty one fails a cluster, and its replans meet refused
// migrations. Setup runs the faulty one once and refuses it if no
// cluster fails, so the row cannot stop covering the fault path unseen.
func stackRun(classes ...fleet.Class) func(tb testing.TB) func() (*sim.Engine, *rtm.Manager) {
	return func(tb testing.TB) func() (*sim.Engine, *rtm.Manager) {
		gen, err := fleet.NewGenerator(fleet.GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"},
			Classes: classes})
		if err != nil {
			tb.Fatal(err)
		}
		var script *workload.Scenario
		for _, s := range gen.GenerateRange(0, 64) {
			if len(s.Script.Reqs) == 3 {
				script = &s.Script
				break
			}
		}
		if script == nil {
			tb.Fatalf("no 3-DNN workload of classes %v in the first 64", classes)
		}
		plat := hw.OdroidXU3()
		var st workload.Stack
		if slices.Contains(classes, fleet.ClassFaulty) {
			if _, _, rep, err := st.Run(*script, plat, fleet.TickS); err != nil || rep.ClusterFails == 0 {
				tb.Fatalf("faulty workload %s failed no cluster (%d fails, error %v)", script.Name, rep.ClusterFails, err)
			}
		}
		return func() (*sim.Engine, *rtm.Manager) {
			e, mgr, _, err := st.Run(*script, plat, fleet.TickS)
			if err != nil {
				tb.Fatal(err)
			}
			return e, mgr
		}
	}
}

// benchReqs are the manager requirements over sim.BenchApps' DNNs.
func benchReqs() rtm.Requirements {
	return rtm.Requirements{
		{App: "dnn1", Requirement: rtm.Requirement{MinAccuracy: 0.70, Priority: 1}},
		{App: "dnn2", Requirement: rtm.Requirement{MinAccuracy: 0.70, Priority: 2}},
		{App: "dnn3", Requirement: rtm.Requirement{Priority: 1}},
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
// reaches the actuated fixed point, a Replan on a quiescent engine builds
// its view (an engine snapshot into reused buffers), compares the
// fingerprint and bumps a counter.
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

// aggregate is fleet.Aggregate over the results of 64 odroid-xu3 and
// jetson-nano workloads, each run under three policies with latencies
// kept: the shape a shard-roundtrip merge folds, 192 runs of a few
// hundred samples each.
func aggregate(tb testing.TB) func() {
	cfg := fleet.GeneratorConfig{
		Seed:      1,
		Platforms: []string{"odroid-xu3", "jetson-nano"},
		Policies:  []string{"heuristic", "maxaccuracy", "minenergy"},
	}
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	results := (&fleet.Runner{Workers: 1}).Run(gen.Generate(gen.RunCount(64)))
	return func() {
		if rep := fleet.Aggregate(cfg.Seed, results); rep.Overall.Scenarios != len(results) {
			tb.Fatal("short report")
		}
	}
}

// generate is scenario sampling: GenerateRange over the same 64
// workloads on every op, drawn from every catalog platform and class, so
// allocs/op is exact. Each workload runs under every policy in pols, back
// to back (the default heuristic alone when pols is empty), and a
// workload's later policy runs share its first's script.
func generate(pols ...string) func(tb testing.TB) func() {
	return func(tb testing.TB) func() {
		gen, err := fleet.NewGenerator(fleet.GeneratorConfig{Seed: 1, Policies: pols})
		if err != nil {
			tb.Fatal(err)
		}
		n := gen.RunCount(64)
		return func() {
			if len(gen.GenerateRange(0, n)) != n {
				tb.Fatal("short range")
			}
		}
	}
}
