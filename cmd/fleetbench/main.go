// Command fleetbench measures the simulator's three hot layers end to end
// and records the numbers in a machine-readable BENCH_fleet.json — the
// repo's perf trajectory file.
//
// Two kinds of measurement run:
//
//   - a seeded N-scenario × P-policy fleet sweep timed wall-clock, giving
//     scenarios/sec (the number that bounds design-space exploration and
//     learned-policy training set generation), plus per-scenario wall-time
//     p50/p95;
//   - Go testing.Benchmark micro-benchmarks of each hot layer — engine-run
//     (one uncontrolled simulated run), engine-run-managed (the same run
//     under the heuristic manager, as every fleet run is), replan (view build + policy plan +
//     actuation against a live engine, plan reuse disabled so the row keeps
//     measuring a full plan), replan-elided (the fingerprint-stable fast
//     path), policy-plan per registered policy, and stream-append and
//     stream-read (one shard stream record encoded and flushed, or read and
//     decoded) — each reporting ns/op, B/op and allocs/op.
//
// Profile the timed sweep with -cpuprofile/-memprofile: the capture window
// covers exactly the timed fleet sweep, so a hot-path hunt sees the same
// work mix the scenarios/sec figure measures. Inspect with
// `go tool pprof fleetbench cpu.out`.
//
// When -out points at an existing file, its "baseline" object is
// preserved, so CI reruns keep the recorded pre-optimisation numbers next
// to fresh ones and `benchstat`-style comparisons stay possible from one
// artifact. Compare a before/after pair of bench runs with:
//
//	go test -run '^$' -bench 'PolicyPlan|Replan' -benchmem -count 10 ./internal/rtm > old.txt
//	# ...apply a change...
//	go test -run '^$' -bench 'PolicyPlan|Replan' -benchmem -count 10 ./internal/rtm > new.txt
//	benchstat old.txt new.txt
//
// With -check, fleetbench becomes the allocation regression gate: after
// measuring, every micro-benchmark's allocs/op is compared against the
// recorded baseline and the process exits non-zero on any increase beyond
// -alloc-slack (default 0; allocs are deterministic for a fixed
// toolchain). A goVersion or gomaxprocs mismatch is annotated, not fatal.
// Throughput is recorded but not gated: wall-clock numbers belong to the
// repository benchmark under bench/. Record a new baseline with
// -rebaseline (mutually exclusive with -check), at GOMAXPROCS=1 so the
// recorded environment matches the gate's.
//
// Usage:
//
//	fleetbench [-scenarios 64] [-seed 1] [-workers 0] [-policies a,b,c]
//	           [-quick] [-benchtime 100ms] [-out BENCH_fleet.json]
//	           [-check] [-alloc-slack 0] [-checkout check.txt] [-rebaseline]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/emlrtm/emlrtm/internal/atomicfile"
	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// BenchNumbers is one micro-benchmark's cost triple.
type BenchNumbers struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// FleetNumbers is the throughput side: a timed fleet sweep.
type FleetNumbers struct {
	Scenarios       int      `json:"scenarios"`
	Policies        []string `json:"policies"`
	Runs            int      `json:"runs"` // scenarios × policies
	Workers         int      `json:"workers"`
	Seed            uint64   `json:"seed"`
	WallSeconds     float64  `json:"wallSeconds"`
	ScenariosPerSec float64  `json:"scenariosPerSec"`
	P50WallMs       float64  `json:"p50WallMs"`
	P95WallMs       float64  `json:"p95WallMs"`
	MaxWallMs       float64  `json:"maxWallMs"`
	// Plan-reuse counters from the pooled sweep: per-scenario properties,
	// so deterministic for a seed, and informational — the check gate
	// never reads them.
	PlansTotal  int `json:"plansTotal,omitempty"`
	PlansElided int `json:"plansElided,omitempty"`
}

// Numbers is one complete measurement set.
type Numbers struct {
	Timestamp  string                  `json:"timestamp,omitempty"`
	GoVersion  string                  `json:"goVersion,omitempty"`
	GOMAXPROCS int                     `json:"gomaxprocs,omitempty"`
	Note       string                  `json:"note,omitempty"`
	Fleet      FleetNumbers            `json:"fleet"`
	Benchmarks map[string]BenchNumbers `json:"benchmarks"`
}

// HistoryEntry is one line of the append-only perf trajectory: a
// timestamped summary of a run that became the baseline.
type HistoryEntry struct {
	Timestamp       string           `json:"timestamp"`
	Note            string           `json:"note,omitempty"`
	ScenariosPerSec float64          `json:"scenariosPerSec"`
	Allocs          map[string]int64 `json:"allocs,omitempty"`
}

// Doc is the BENCH_fleet.json schema: the recorded baseline (kept across
// reruns), the current measurement, and the append-only history of every
// rebaseline — the long-run perf trajectory that survives baselines
// replacing each other.
type Doc struct {
	Schema   int            `json:"schema"`
	Baseline *Numbers       `json:"baseline,omitempty"`
	Current  Numbers        `json:"current"`
	History  []HistoryEntry `json:"history,omitempty"`
}

// historyEntry summarises a measurement for the trajectory log: the
// headline throughput number plus allocs/op per micro-benchmark (the
// deterministic numbers worth tracking across toolchains).
func historyEntry(n Numbers) HistoryEntry {
	h := HistoryEntry{
		Timestamp:       n.Timestamp,
		Note:            n.Note,
		ScenariosPerSec: n.Fleet.ScenariosPerSec,
		Allocs:          make(map[string]int64, len(n.Benchmarks)),
	}
	for name, b := range n.Benchmarks {
		h.Allocs[name] = b.AllocsPerOp
	}
	return h
}

func main() {
	// testing.Init registers the test.* flags (test.benchtime in
	// particular) before our own, so -benchtime can forward to the
	// testing.Benchmark machinery below.
	testing.Init()
	scenarios := flag.Int("scenarios", 64, "workloads in the timed fleet sweep (total runs = scenarios × policies)")
	seed := flag.Uint64("seed", 1, "master fleet seed")
	workers := flag.Int("workers", 0, "fleet worker pool size (0 = NumCPU)")
	policies := flag.String("policies", "heuristic,maxaccuracy,minenergy", "comma-separated policies for the sweep")
	quick := flag.Bool("quick", false, "CI smoke mode: a small sweep (8 scenarios)")
	out := flag.String("out", "BENCH_fleet.json", "output file; an existing file's baseline object is preserved (\"-\" = stdout)")
	note := flag.String("note", "", "free-form annotation stored with the measurement")
	benchtime := flag.String("benchtime", "", "micro-benchmark duration per benchmark (e.g. 100ms, 50x); default is Go's 1s")
	check := flag.Bool("check", false, "after measuring, compare current against the recorded baseline and exit non-zero on regression")
	allocSlack := flag.Int64("alloc-slack", 0, "with -check: absolute allocs/op increase tolerated per benchmark (allocs are deterministic, so 0 is not flaky)")
	rebaseline := flag.Bool("rebaseline", false, "record this run's numbers as the new baseline (replacing any recorded one)")
	checkout := flag.String("checkout", "", "with -check: also write the check report to this file (for CI artifacts)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the fleet sweep to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the fleet sweep to this file")
	flag.Parse()

	if *quick {
		*scenarios = 8
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			log.Fatalf("fleetbench: bad -benchtime: %v", err)
		}
	}
	if *check && *rebaseline {
		// Checking against a baseline this same run replaces is a
		// self-comparison; it can only pass and would launder regressions
		// into the new baseline.
		log.Fatalf("fleetbench: -check and -rebaseline are mutually exclusive")
	}
	pols := strings.Split(*policies, ",")
	for _, p := range pols {
		if _, err := rtm.NewPolicy(p); err != nil {
			log.Fatalf("fleetbench: %v", err)
		}
	}
	// Read the previous baseline and history *before* measuring: a corrupt
	// -out file must fail fast, not after minutes of benchmarks whose fresh
	// numbers it would discard along with itself.
	var baseline *Numbers
	var history []HistoryEntry
	if *out != "-" {
		var err error
		if baseline, history, err = loadBaseline(*out); err != nil {
			log.Fatalf("fleetbench: %v", err)
		}
	}

	cur := Numbers{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       *note,
		Benchmarks: map[string]BenchNumbers{},
	}

	// ---- Fleet throughput sweep ----
	// The profile window covers exactly the timed sweep, so a hot-path
	// hunt sees the same mix the scenarios/sec figure measures, without
	// micro-benchmark noise.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("fleetbench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("fleetbench: -cpuprofile: %v", err)
		}
		defer f.Close()
	}
	fmt.Fprintf(os.Stderr, "fleetbench: sweep %d scenarios x %d policies...\n", *scenarios, len(pols))
	fn, err := sweep(*seed, *scenarios, *workers, pols)
	if err != nil {
		log.Fatalf("fleetbench: %v", err)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "fleetbench: wrote %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("fleetbench: -memprofile: %v", err)
		}
		runtime.GC() // flush recently-freed objects so the profile shows live + cumulative allocs accurately
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("fleetbench: -memprofile: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "fleetbench: wrote %s\n", *memprofile)
	}
	cur.Fleet = fn
	fmt.Fprintf(os.Stderr, "fleetbench: %.1f scenarios/sec (%d runs in %.2fs)\n",
		fn.ScenariosPerSec, fn.Runs, fn.WallSeconds)

	// ---- Hot-layer micro-benchmarks ----
	cur.Benchmarks["engine-run"] = record("engine-run", benchEngineRun)
	cur.Benchmarks["engine-new"] = record("engine-new", benchEngineNew)
	cur.Benchmarks["engine-run-managed"] = record("engine-run-managed", benchEngineRunManaged)
	cur.Benchmarks["replan"] = record("replan", benchReplan)
	cur.Benchmarks["replan-elided"] = record("replan-elided", benchReplanElided)
	for _, p := range pols {
		cur.Benchmarks["policy-plan/"+p] = record("policy-plan/"+p, benchPolicyPlan(p))
	}
	cur.Benchmarks["stream-append"] = record("stream-append", benchStreamAppend)
	cur.Benchmarks["stream-read"] = record("stream-read", benchStreamRead)

	if *rebaseline {
		// The trajectory log is append-only: every run that becomes the
		// baseline leaves a permanent line, so the perf history survives
		// baselines replacing each other. Files that predate the history
		// field get their about-to-be-replaced baseline preserved as line
		// zero exactly once.
		if len(history) == 0 && baseline != nil {
			history = append(history, historyEntry(*baseline))
		}
		baseline = &cur
		history = append(history, historyEntry(cur))
	}
	doc := Doc{Schema: 1, Baseline: baseline, Current: cur, History: history}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("fleetbench: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		// Atomic (temp + rename): this file carries the recorded perf
		// trajectory, and a crash mid-write must not leave a truncated
		// artifact that the next run's fail-loud baseline parse rejects.
		// Written before any -check verdict so a failing gate still leaves
		// the fresh numbers on disk for inspection.
		if err := atomicfile.WriteFile(*out, func(w io.Writer) error {
			_, werr := w.Write(enc)
			return werr
		}); err != nil {
			log.Fatalf("fleetbench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "fleetbench: wrote %s\n", *out)
	}

	if !*check {
		return
	}
	res := checkRegression(baseline, cur, *allocSlack)
	report := res.render()
	fmt.Fprint(os.Stderr, report)
	if *checkout != "" {
		if err := os.WriteFile(*checkout, []byte(report), 0o644); err != nil {
			log.Fatalf("fleetbench: writing check report: %v", err)
		}
	}
	if !res.ok() {
		os.Exit(1)
	}
}

// loadBaseline extracts the recorded baseline and the append-only history
// from a previous -out file so reruns preserve the pre-optimisation
// numbers and the trajectory log. A missing file is fine (first run: no
// baseline, empty history). A file that exists but does not parse is an
// error, not a shrug: the old behaviour silently dropped the baseline on a
// corrupt artifact and the next write destroyed the recorded perf
// trajectory — exactly the history the file exists to keep. The caller
// refuses to overwrite until the operator fixes or removes the file.
func loadBaseline(path string) (*Numbers, []HistoryEntry, error) {
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("reading previous %s: %w", path, err)
	}
	var old Doc
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, nil, fmt.Errorf("previous %s is corrupt (%v); refusing to overwrite it and lose the recorded baseline — fix or delete the file, or use -out - for stdout", path, err)
	}
	return old.Baseline, old.History, nil
}

// sweep times a full fleet run and derives throughput plus per-scenario
// wall-time percentiles.
func sweep(seed uint64, scenarios, workers int, pols []string) (FleetNumbers, error) {
	cfg := fleet.GeneratorConfig{Seed: seed, Policies: pols}
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		return FleetNumbers{}, err
	}
	scens := gen.Generate(gen.RunCount(scenarios))
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	// Pooled pass: the throughput number. DropLatencies matches how a
	// million-scenario fleet would actually run.
	runner := &fleet.Runner{Workers: workers, DropLatencies: true}
	start := time.Now()
	results := runner.Run(scens)
	total := time.Since(start)
	for _, r := range results {
		if r.Err != "" {
			return FleetNumbers{}, fmt.Errorf("scenario %d failed: %s", r.ID, r.Err)
		}
	}

	// Serial sampled pass: per-scenario wall-time percentiles, free of
	// pool scheduling noise and bounded so fleetbench stays cheap.
	sample := len(scens)
	if sample > 32 {
		sample = 32
	}
	ms := make([]float64, 0, sample)
	for i := 0; i < sample; i++ {
		t0 := time.Now()
		fleet.RunOne(scens[i])
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(ms)
	fn := FleetNumbers{
		Scenarios:       scenarios,
		Policies:        pols,
		Runs:            len(scens),
		Workers:         workers,
		Seed:            seed,
		WallSeconds:     total.Seconds(),
		ScenariosPerSec: float64(len(scens)) / total.Seconds(),
	}
	if n := len(ms); n > 0 {
		fn.P50WallMs = ms[(n-1)/2]
		fn.P95WallMs = ms[min(n-1, int(float64(n)*0.95+0.5)-1)]
		fn.MaxWallMs = ms[n-1]
	}
	ps := runner.PlanCacheStats()
	fn.PlansTotal = ps.Plans
	fn.PlansElided = ps.Elided
	fmt.Fprintf(os.Stderr, "fleetbench: plan reuse: %d plans, %d elided\n", ps.Plans, ps.Elided)
	return fn, nil
}

// record runs one testing.Benchmark and prints + returns its numbers.
func record(name string, fn func(b *testing.B)) BenchNumbers {
	res := testing.Benchmark(fn)
	n := BenchNumbers{
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %-24s %12.0f ns/op %8d B/op %6d allocs/op\n",
		name, n.NsPerOp, n.BytesPerOp, n.AllocsPerOp)
	return n
}

// benchEngineRun measures the steady-state engine cost the fleet actually
// pays: one uncontrolled 10-simulated-second run on a reused engine, Reset
// in place between iterations exactly as each fleet worker does between
// scenarios. Construction cost is excluded (that is benchEngineNew); this
// number is the "engine allocs/run ≤ 10 steady-state" target the check
// gate enforces.
func benchEngineRun(b *testing.B) {
	cfg := sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps()}
	e, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineNew measures the same run with per-iteration construction —
// the cold-start cost a worker pays once per scenario stream. Kept
// alongside engine-run so the trajectory file shows what Engine.Reset
// amortises away.
func benchEngineNew(b *testing.B) {
	run := func() {
		e, err := sim.New(sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps()})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm, like every row: a -benchtime 1x read must be the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchEngineRunManaged measures what a fleet run costs the engine and
// controller together: the engine-run workload under a fresh heuristic
// manager per iteration, at the fleet's tick and with its event log, on a
// reused engine — the cmd-level twin of internal/sim's
// BenchmarkEngineRunManaged. Unlike engine-run it reaches the controller
// callbacks, replans and the deadline-miss path.
func benchEngineRunManaged(b *testing.B) {
	cfg := sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps(), TickS: fleet.TickS, LogEvents: true}
	e, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		cfg.Controller = rtm.NewManager(benchReqs())
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
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

// benchManagedEngine builds the warmed-up manager + engine pair the replan
// and policy-plan benchmarks share.
func benchManagedEngine(b *testing.B) (*rtm.Manager, *sim.Engine) {
	mgr := rtm.NewManager(benchReqs())
	e, err := sim.New(sim.Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       sim.BenchApps(),
		Controller: mgr,
		TickS:      fleet.TickS,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		b.Fatal(err)
	}
	return mgr, e
}

// benchReplan measures the full manager path against a warmed-up engine —
// the cmd-level twin of internal/rtm's BenchmarkReplan. Plan reuse is
// disabled: on a quiescent engine every iteration after the first would
// otherwise be elided, and this row exists to track the cost of a real
// snapshot + plan + actuation.
func benchReplan(b *testing.B) {
	mgr, e := benchManagedEngine(b)
	mgr.NoPlanReuse = true
	mgr.Replan(e) // warm the manager's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Replan(e)
	}
}

// benchReplanElided measures the fingerprint-stable fast path: after one
// actuated fixed point, every further Replan on a quiescent engine is a
// fingerprint compare and a counter bump. This is the per-tick cost the
// elision tier buys the fleet down to.
func benchReplanElided(b *testing.B) {
	mgr, e := benchManagedEngine(b)
	mgr.Replan(e) // reach the actuated fixed point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Replan(e)
	}
}

// benchPolicyPlan measures one Plan over a realistic warmed-up view for
// the named policy. The view is the manager's last planning input
// (LastView) after a short managed run — equivalent content to the
// internal benchmark's direct view build, reachable through the public
// API.
func benchPolicyPlan(name string) func(b *testing.B) {
	return func(b *testing.B) {
		p, err := rtm.NewPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		mgr, _ := benchManagedEngine(b)
		v := mgr.LastView()
		p.Plan(v) // warm the scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if plan := p.Plan(v); len(plan) == 0 {
				b.Fatal("empty plan")
			}
		}
	}
}

// streamBenchLo is the first scenario index of the stream benchmarks'
// records: ten digits, so every record's ID encodes at the same width.
const streamBenchLo = 1_000_000_000

// streamBenchRecords returns a stream header and valid records for
// scenarios [streamBenchLo, streamBenchLo+256) of a single-policy
// odroid-xu3 fleet at seed 1: one real run's result, latencies kept,
// relabelled with each scenario's ID and seed.
func streamBenchRecords(b *testing.B) (fleet.StreamHeader, []fleet.Result) {
	cfg := fleet.GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"}}
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scens := gen.GenerateRange(streamBenchLo, streamBenchLo+256)
	tmpl := fleet.RunOne(scens[0])
	recs := make([]fleet.Result, len(scens))
	for i, s := range scens {
		recs[i] = tmpl
		recs[i].ID, recs[i].Seed = s.ID, s.Seed
	}
	hdr := fleet.StreamHeader{Config: cfg, Total: 2 * streamBenchLo, Lo: streamBenchLo, Hi: streamBenchLo + len(recs)}
	return hdr, recs
}

// benchStreamAppend measures StreamWriter.Append: one record encoded and
// flushed (to io.Discard). A completed writer is replaced with the timer
// stopped and its first record appended there, so every timed Append is a
// steady-state one — 0 allocs.
func benchStreamAppend(b *testing.B) {
	hdr, recs := streamBenchRecords(b)
	open := func() *fleet.StreamWriter {
		sw, err := fleet.NewStreamWriter(io.Discard, hdr)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Append(recs[0]); err != nil {
			b.Fatal(err)
		}
		return sw
	}
	sw := open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sw.Complete() {
			b.StopTimer()
			sw = open()
			b.StartTimer()
		}
		if err := sw.Append(recs[sw.Next()-hdr.Lo]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamRead measures StreamReader.Read over the records
// benchStreamAppend writes: one line read, decoded and validated. A
// drained reader is replaced with the timer stopped and its first record
// read there.
func benchStreamRead(b *testing.B) {
	hdr, recs := streamBenchRecords(b)
	var buf bytes.Buffer
	sw, err := fleet.NewStreamWriter(&buf, hdr)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	open := func() *fleet.StreamReader {
		sr, err := fleet.NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sr.Read(); err != nil {
			b.Fatal(err)
		}
		return sr
	}
	sr := open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sr.Read()
		if errors.Is(err, io.EOF) {
			b.StopTimer()
			sr = open()
			b.StartTimer()
			_, err = sr.Read()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
