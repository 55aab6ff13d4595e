// Command fleetsim runs a fleet of generated scenarios — many independent
// simulator + runtime-manager instances — across a worker pool and reports
// aggregate quality-of-service, energy and thermal statistics broken down
// by platform, scenario class and planning policy.
//
// The same seed yields a byte-identical report for any -workers value:
// scenario generation and execution are deterministic, and aggregation is
// order-stable.
//
// -policies sweeps several runtime-manager planning policies over the
// *same* sampled workloads (-scenarios counts workloads; total runs are
// scenarios × policies), and the report gains per-policy rows plus a
// per-policy regret block: for every workload the oracle is the best swept
// policy on that exact run, and regret is each policy's mean excess miss
// rate and energy over it. Policy names may be parameterised — a table
// trained by cmd/policytrain runs as "learned:<table.json>":
//
//	fleetsim -scenarios 64 -seed 1 -policies heuristic,maxaccuracy,minenergy -format table
//	fleetsim -scenarios 64 -seed 1 -policies heuristic,learned:table.json -format table
//
// A fleet can also be split across processes or machines. -shard i/m runs
// only the i-th (1-based) contiguous slice of the scenario range and
// streams it to the -out file: a header line, then one NDJSON record per
// completed scenario, flushed as it completes. -resume restarts an
// interrupted stream from its last flushed scenario — a shard killed at
// scenario 700/1000 re-runs only 700..999. "fleetsim merge" validates and
// combines complete streams into a report byte-identical to the
// single-process run:
//
//	fleetsim -scenarios 1000 -seed 1 -shard 1/2 -out s1.ndjson
//	# …SIGKILL…
//	fleetsim -scenarios 1000 -seed 1 -shard 1/2 -resume -out s1.ndjson
//	fleetsim -scenarios 1000 -seed 1 -shard 2/2 -out s2.ndjson
//	fleetsim merge s1.ndjson s2.ndjson
//
// "fleetsim orchestrate" supervises a whole sharded run in one command: it
// dispatches -shards m shard subprocesses (each streaming into the -out
// directory), watches stream progress, kills stalled shards (-stall),
// retries failed ranges with bounded backoff (-retries), resumes any
// partial streams already in the directory, and merges as shards
// complete. The report on stdout is byte-identical to the single-process
// run:
//
//	fleetsim orchestrate -scenarios 1000 -seed 1 -shards 4 -out streams/
//
// -classes selects disturbance classes (steady, mixed, bursty, thermal,
// churn, faulty); an unknown class fails with the valid set before any
// simulation runs. The faulty class injects seeded hardware faults —
// clusters dropping offline mid-run (and usually repairing), never all at
// once — and its reports gain fault/recovery columns: cluster fails and
// repairs, aborted jobs, unhosted app-seconds, mean recovery latency
// (fault → first actuated replan), and the miss rate inside vs outside the
// degraded windows.
//
// Results keep their raw per-job latency samples in ascending order, and
// shard files run-length encode them as [value,count] runs. -nolat drops
// the samples from results and shard files, which makes a shard 4–14×
// smaller (3.6× for a 256-workload odroid-xu3,jetson-nano 3-policy sweep,
// 13.5× for the catalog mix). Per-scenario mean/p95/max and group means
// stay exact; pooled group p95 degrades to the worst per-scenario p95
// and is marked approximate (p95Approx in JSON, a ~ suffix in tables).
//
// Managers elide replans whose planning fingerprint has not changed
// since their last actuated plan. The report is byte-identical to
// planning every replan fresh; internal/fleet's
// TestReplanElisionEquivalence pins that against policies that cannot
// opt into elision.
//
// Usage:
//
//	fleetsim [-scenarios 64] [-seed 1] [-workers N] [-platforms a,b]
//	         [-classes steady,thermal] [-policies a,b]
//	         [-format json|table] [-results] [-nolat] [-out file]
//	         [-shard i/m -out shard.ndjson [-resume] [-syncevery N]]
//	fleetsim merge [-format json|table] [-results] [-out file] shard.ndjson...
//	fleetsim orchestrate -shards m -out dir [-scenarios N] [-seed S]
//	         [-stall 30s] [-retries 2] [-format json|table] [-results]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/trace"
)

func main() {
	// Subcommands are dispatched strictly: an unknown word where a
	// subcommand goes must fail with usage, not silently run the default
	// fleet ("fleetsim mrege a.json b.json" burning minutes of simulation
	// was the failure mode).
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "merge":
			mergeMain(os.Args[2:])
			return
		case "orchestrate":
			orchestrateMain(os.Args[2:])
			return
		default:
			fmt.Fprintf(os.Stderr, "fleetsim: unknown subcommand %q (want merge or orchestrate)\n", os.Args[1])
			usage(os.Stderr)
			os.Exit(2)
		}
	}
	runMain()
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: fleetsim [flags]                    run a fleet (or one shard with -shard)")
	fmt.Fprintln(w, "       fleetsim merge [flags] shard...     merge shard files into a report")
	fmt.Fprintln(w, "       fleetsim orchestrate [flags]        dispatch, supervise and merge shard processes")
	fmt.Fprintln(w, "run 'fleetsim -h', 'fleetsim merge -h' or 'fleetsim orchestrate -h' for flags")
}

func runMain() {
	scenarios := flag.Int("scenarios", 64, "number of scenarios in the fleet (the whole fleet, even with -shard)")
	seed := flag.Uint64("seed", 1, "master seed (per-scenario seeds derive from it)")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	platforms := flag.String("platforms", "", "comma-separated platform names (empty = all)")
	classes := flag.String("classes", "", "comma-separated scenario classes: steady,mixed,bursty,thermal,churn,faulty (empty = all)")
	policies := flag.String("policies", "", "comma-separated planning policies to sweep over the same workloads (empty = heuristic; total runs = scenarios × policies)")
	format := flag.String("format", "json", "output format: json or table")
	results := flag.Bool("results", false, "include per-scenario results (json format)")
	progress := flag.Bool("progress", false, "print progress to stderr")
	shard := flag.String("shard", "", "run only shard i of m, as \"i/m\" (1-based), streaming it to -out for \"fleetsim merge\"")
	out := flag.String("out", "", "write output to this file instead of stdout (required with -shard: the shard stream file)")
	nolat := flag.Bool("nolat", false, "drop raw per-job latency samples (kept ascending, run-length encoded in shard files) from results and shard files: shards shrink 4-14x; scalar mean/p95/max and group means stay, group p95 becomes the worst per-scenario p95")
	resume := flag.Bool("resume", false, "with -shard: resume an interrupted stream at -out from its last flushed scenario")
	syncevery := flag.Int("syncevery", 0, "with -shard: fsync the stream file every N records (0 = never; per-record flushes already survive process death, fsync adds power-loss durability)")
	flag.Parse()
	if flag.NArg() > 0 {
		// Stray positional args mean a mistyped invocation; running the
		// default fleet anyway would silently ignore the user's intent.
		fmt.Fprintf(os.Stderr, "fleetsim: unexpected argument %q\n", flag.Arg(0))
		usage(os.Stderr)
		os.Exit(2)
	}

	// Validate everything cheap before simulating: a bad -format or -shard
	// must fail now, not after minutes of fleet execution.
	if *format != "json" && *format != "table" {
		log.Fatalf("fleetsim: unknown format %q (want json or table)", *format)
	}
	if *scenarios <= 0 {
		log.Fatalf("fleetsim: -scenarios %d must be positive", *scenarios)
	}
	if *syncevery < 0 {
		log.Fatalf("fleetsim: -syncevery %d must be non-negative", *syncevery)
	}
	cfg := buildConfig(*seed, *platforms, *classes, *policies)
	shardIdx, shardCount, err := parseShard(*shard)
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	// NewGenerator validates platforms, classes and policies: a typo in a
	// sweep spec must fail here, not after minutes of fleet execution.
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		log.Fatalf("fleetsim: %v", err)
	}

	if shardCount == 0 && (*resume || *syncevery > 0) {
		log.Fatalf("fleetsim: -resume/-syncevery require -shard (they act on the shard stream file)")
	}
	if shardCount > 0 {
		if *out == "" {
			log.Fatalf("fleetsim: -shard requires -out (the shard stream file)")
		}
		// A shard emits a stream, not a report; refuse report-shaping
		// flags instead of silently dropping them.
		if *format != "json" || *results {
			log.Fatalf("fleetsim: -format/-results have no effect with -shard; use them on \"fleetsim merge\"")
		}
		if !*resume {
			// A fresh shard must not silently extend or clobber an
			// existing file; resuming is an explicit choice.
			if fi, err := os.Stat(*out); err == nil && fi.Size() > 0 {
				log.Fatalf("fleetsim: %s already exists; pass -resume to continue it", *out)
			}
		}
		runner := &fleet.Runner{Workers: *workers, DropLatencies: *nolat, SyncEvery: *syncevery}
		if *progress {
			runner.Progress = progressFunc()
		}
		if _, err := runner.ResumeShard(*out, cfg, *scenarios, shardIdx, shardCount); err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		return
	}

	scens := gen.Generate(gen.RunCount(*scenarios))
	runner := &fleet.Runner{Workers: *workers, DropLatencies: *nolat}
	if *progress {
		runner.Progress = progressFunc()
	}
	res := runner.Run(scens)
	rep := fleet.Aggregate(*seed, res)
	if !*results {
		res = nil
	}
	writeOutput(*out, func(w io.Writer) error { return writeReport(w, *format, rep, res) })
}

func mergeMain(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	format := fs.String("format", "json", "output format: json or table")
	results := fs.Bool("results", false, "include per-scenario results (json format)")
	out := fs.String("out", "", "write output to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: fleetsim merge [-format json|table] [-results] [-out file] shard.ndjson...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		log.Fatalf("fleetsim merge: %v", err)
	}
	if *format != "json" && *format != "table" {
		log.Fatalf("fleetsim merge: unknown format %q (want json or table)", *format)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	shards := make([]fleet.ShardResult, 0, fs.NArg())
	for _, path := range fs.Args() {
		s, err := fleet.ReadShardFile(path) // its errors name the file
		if err != nil {
			log.Fatalf("fleetsim merge: %v", err)
		}
		shards = append(shards, s)
	}
	rep, res, err := fleet.Merge(shards...)
	if err != nil {
		log.Fatalf("fleetsim merge: %v", err)
	}
	if !*results {
		res = nil
	}
	writeOutput(*out, func(w io.Writer) error { return writeReport(w, *format, rep, res) })
}

func orchestrateMain(args []string) {
	fs := flag.NewFlagSet("orchestrate", flag.ExitOnError)
	scenarios := fs.Int("scenarios", 64, "number of scenarios in the fleet")
	seed := fs.Uint64("seed", 1, "master seed (per-scenario seeds derive from it)")
	workers := fs.Int("workers", 0, "worker pool size per shard process (0 = NumCPU)")
	platforms := fs.String("platforms", "", "comma-separated platform names (empty = all)")
	classes := fs.String("classes", "", "comma-separated scenario classes: steady,mixed,bursty,thermal,churn,faulty (empty = all)")
	policies := fs.String("policies", "", "comma-separated planning policies to sweep over the same workloads (empty = heuristic)")
	nolat := fs.Bool("nolat", false, "drop raw per-job latency samples (forwarded to every shard)")
	shards := fs.Int("shards", 2, "number of shard subprocesses to dispatch")
	out := fs.String("out", "", "directory for per-shard stream files (required; partial streams there are resumed)")
	stall := fs.Duration("stall", 30*time.Second, "kill a shard whose stream makes no progress for this long (0 disables)")
	retries := fs.Int("retries", 2, "retries per shard after its first failed attempt (non-negative)")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "wait before the first retry, doubling per attempt")
	format := fs.String("format", "json", "report output format: json or table")
	results := fs.Bool("results", false, "include per-scenario results (json format)")
	quiet := fs.Bool("quiet", false, "suppress shard progress on stderr")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: fleetsim orchestrate -shards m -out dir [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		log.Fatalf("fleetsim orchestrate: %v", err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim orchestrate: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
	if *format != "json" && *format != "table" {
		log.Fatalf("fleetsim orchestrate: unknown format %q (want json or table)", *format)
	}
	if *out == "" {
		log.Fatalf("fleetsim orchestrate: -out directory is required")
	}
	if *retries < 0 {
		// MaxAttempts <= 0 means the default, so -retries -1 would
		// otherwise silently run three attempts.
		log.Fatalf("fleetsim orchestrate: -retries %d must be non-negative", *retries)
	}
	if *stall < 0 {
		// StallTimeout <= 0 disables detection, so a negative -stall would
		// otherwise silently turn it off; 0 is the way to ask for that.
		log.Fatalf("fleetsim orchestrate: -stall %v must be non-negative (0 disables stall detection)", *stall)
	}
	if *backoff <= 0 {
		// RetryBackoff <= 0 means the library's 250ms default, not this
		// flag's documented 500ms.
		log.Fatalf("fleetsim orchestrate: -backoff %v must be positive", *backoff)
	}
	cfg := buildConfig(*seed, *platforms, *classes, *policies)
	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("fleetsim orchestrate: locating own binary: %v", err)
	}
	// Each shard is this same binary in -resume mode: a retry after a
	// crash or a stall-kill picks up from the last flushed scenario.
	argv := func(spec fleet.ShardSpec) []string {
		a := []string{exe,
			"-scenarios", fmt.Sprint(*scenarios),
			"-seed", fmt.Sprint(*seed),
			"-shard", fmt.Sprintf("%d/%d", spec.Index+1, spec.Count),
			"-resume",
			"-out", spec.Path,
			"-workers", fmt.Sprint(*workers),
		}
		if *platforms != "" {
			a = append(a, "-platforms", *platforms)
		}
		if *classes != "" {
			a = append(a, "-classes", *classes)
		}
		if *policies != "" {
			a = append(a, "-policies", *policies)
		}
		if *nolat {
			a = append(a, "-nolat")
		}
		return a
	}
	ocfg := fleet.OrchestratorConfig{
		Config:       cfg,
		Workloads:    *scenarios,
		Shards:       *shards,
		Dir:          *out,
		Start:        fleet.CommandStart(argv, os.Stderr),
		StallTimeout: *stall,
		MaxAttempts:  *retries + 1,
		RetryBackoff: *backoff,
	}
	if !*quiet {
		ocfg.Logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, f+"\n", args...) }
	}
	rep, res, err := fleet.Orchestrate(ocfg)
	if err != nil {
		log.Fatalf("fleetsim orchestrate: %v", err)
	}
	if !*results {
		res = nil
	}
	writeOutput("", func(w io.Writer) error { return writeReport(w, *format, rep, res) })
}

// buildConfig assembles the generator config shared by the run and
// orchestrate entry points, so both validate sweep specs identically.
func buildConfig(seed uint64, platforms, classes, policies string) fleet.GeneratorConfig {
	cfg := fleet.GeneratorConfig{Seed: seed}
	if platforms != "" {
		cfg.Platforms = strings.Split(platforms, ",")
	}
	if classes != "" {
		known := map[fleet.Class]bool{}
		for _, c := range fleet.AllClasses() {
			known[c] = true
		}
		for _, c := range strings.Split(classes, ",") {
			// An unknown class must fail loudly before any simulation, with
			// the valid set and a usage-style exit code.
			if !known[fleet.Class(c)] {
				fmt.Fprintf(os.Stderr, "fleetsim: unknown class %q (valid: %v)\n", c, fleet.AllClasses())
				os.Exit(2)
			}
			cfg.Classes = append(cfg.Classes, fleet.Class(c))
		}
	}
	if policies != "" {
		cfg.Policies = strings.Split(policies, ",")
	}
	return cfg
}

// parseShard parses "i/m" (1-based) into a 0-based index and a count;
// empty input means no sharding (count 0). Trailing garbage is an error:
// a misparsed -shard means minutes of simulating the wrong slice.
func parseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	is, ms, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q must be i/m, e.g. 1/4", s)
	}
	i, err1 := strconv.Atoi(is)
	m, err2 := strconv.Atoi(ms)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("-shard %q must be i/m, e.g. 1/4", s)
	}
	if m < 1 || i < 1 || i > m {
		return 0, 0, fmt.Errorf("-shard %q out of range: want 1 <= i <= m", s)
	}
	return i - 1, m, nil
}

func progressFunc() func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rfleetsim: %d/%d", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// writeOutput runs emit against -out (or stdout). Report bytes go through
// here so single-process, merge and orchestrate outputs format
// identically — that is what lets CI `cmp` them.
func writeOutput(path string, emit func(io.Writer) error) {
	w := io.Writer(os.Stdout)
	var f *os.File
	if path != "" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
		w = f
	}
	if err := emit(w); err != nil {
		log.Fatalf("fleetsim: %v", err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			log.Fatalf("fleetsim: %v", err)
		}
	}
}

func writeReport(w io.Writer, format string, rep fleet.Report, res []fleet.Result) error {
	switch format {
	case "json":
		out := struct {
			fleet.Report
			Results []fleet.Result `json:"results,omitempty"`
		}{Report: rep, Results: res}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case "table":
		return printTables(w, rep)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func printTables(w io.Writer, rep fleet.Report) error {
	t := trace.NewTable(
		fmt.Sprintf("fleet report (seed %d, %d scenarios)", rep.Seed, rep.Overall.Scenarios),
		"group", "scen", "frames", "miss%", "meanLat(ms)", "p95Lat(ms)",
		"energy(J)", "thermal%", "plans", "migr", "oppSw")
	addRow := func(name string, s fleet.GroupStats) {
		// Approximate group p95s (a -nolat scenario contributed, so the
		// percentile could not pool every sample) carry a ~ suffix.
		p95 := any(1000 * s.P95LatencyS)
		if s.P95Approx {
			p95 = trace.FormatFloat(1000*s.P95LatencyS) + "~"
		}
		t.AddRow(name, s.Scenarios, s.Frames, 100*s.MissRate,
			1000*s.MeanLatencyS, p95,
			s.EnergyMJ/1000, 100*s.ThermalRate,
			s.Plans, s.Migrations, s.OPPSwitches)
	}
	addRow("overall", rep.Overall)
	for _, name := range sortedKeys(rep.ByPlatform) {
		addRow("platform:"+name, rep.ByPlatform[name])
	}
	classes := make([]string, 0, len(rep.ByClass))
	for c := range rep.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		addRow("class:"+c, rep.ByClass[fleet.Class(c)])
	}
	for _, name := range sortedKeys(rep.ByPolicy) {
		addRow("policy:"+name, rep.ByPolicy[name])
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	// Groups that saw cluster faults get the recovery table: how much
	// hardware was lost, how fast the manager replanned around it, and how
	// QoS inside the degraded windows compares to outside them.
	if rep.Overall.ClusterFails > 0 {
		ft := trace.NewTable(
			"fault recovery (degraded = frames released while any cluster was offline)",
			"group", "fails", "repairs", "aborted", "unhosted(s)",
			"recoveries", "meanRecov(s)", "degMiss%", "healthyMiss%")
		addFaultRow := func(name string, s fleet.GroupStats) {
			if s.ClusterFails == 0 {
				return
			}
			ft.AddRow(name, s.ClusterFails, s.ClusterRepairs, s.JobsAborted,
				s.UnhostedS, s.Recoveries, s.MeanRecoveryS,
				100*s.DegradedMissRate, 100*s.HealthyMissRate)
		}
		addFaultRow("overall", rep.Overall)
		for _, c := range classes {
			addFaultRow("class:"+c, rep.ByClass[fleet.Class(c)])
		}
		for _, name := range sortedKeys(rep.ByPolicy) {
			addFaultRow("policy:"+name, rep.ByPolicy[name])
		}
		fmt.Fprintln(w)
		if _, err := ft.WriteTo(w); err != nil {
			return err
		}
	}
	if rep.Regret == nil {
		return nil
	}
	// Sweeps get the regret table: how far each policy sits from the
	// per-workload oracle (the best swept policy on the same bit-identical
	// workload, per metric).
	rt := trace.NewTable(
		"policy regret (oracle = best policy per workload)",
		"policy", "workloads", "oracleWins", "missRegret(pp)", "energyRegret(J)")
	fmt.Fprintln(w)
	for _, name := range sortedKeys(rep.Regret) {
		r := rep.Regret[name]
		rt.AddRow(name, r.Workloads, r.OracleWins,
			100*r.MissRateRegret, r.EnergyRegretMJ/1000)
	}
	_, err := rt.WriteTo(w)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
