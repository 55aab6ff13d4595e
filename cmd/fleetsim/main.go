// Command fleetsim runs a fleet of generated scenarios — many independent
// simulator + runtime-manager instances — across a worker pool and reports
// aggregate quality-of-service, energy and thermal statistics broken down
// by platform, scenario class and planning policy. Its subcommands merge
// shard streams, orchestrate sharded runs and train learned policy tables.
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
// trained by "fleetsim train" runs as "learned:<table.json>":
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
// "fleetsim train" trains the learned runtime-manager policy: it replays a
// seeded fleet of generated workloads under every base policy (arm),
// scores each run on a miss-rate + energy reward, runs epsilon-greedy
// refinement epochs, and writes the resulting state → policy selection
// table as JSON. The table then runs anywhere a policy name is accepted,
// as "learned:<table.json>" — fleetsim sweeps, the facade, scripted
// scenarios. The same -seed (and flags) writes a byte-identical table at
// any -workers value, so a committed table is reproducible and CI can
// train twice and cmp. The summary printed to stderr afterwards shows each
// arm's pure-sweep mean cost — the bar the learned policy has to clear —
// and how many discretised states the table covers. The regret block of a
// sweep evaluates a trained table against its arms:
//
//	fleetsim train -seed 1 -workloads 64 -out table.json
//	fleetsim -scenarios 64 -seed 1 \
//	    -policies heuristic,maxaccuracy,minenergy,learned:table.json -format table
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
// Results keep their per-job latencies in whole nanoseconds, as ascending
// [value,count] runs, in memory, in -results output and in shard files,
// so every pooled group p95 is exact. A shard stream whose records lack
// them is refused by merge and -resume.
//
// Managers elide replans whose planning fingerprint has not changed
// since their last actuated plan. The report is byte-identical to
// planning every replan fresh; internal/fleet's
// TestReplanElisionEquivalence pins that against policies that cannot
// opt into elision.
//
// Every check that needs no simulation runs before the first scenario. A
// bad flag, a stray argument or an unknown subcommand exits 2, any other
// failure exits 1.
//
// Usage:
//
//	fleetsim [-scenarios 64] [-seed 1] [-workers N] [-platforms a,b]
//	         [-classes steady,thermal] [-policies a,b]
//	         [-format json|table] [-results] [-out file]
//	         [-shard i/m -out shard.ndjson [-resume] [-syncevery N]]
//	fleetsim merge [-format json|table] [-results] [-out file] shard.ndjson...
//	fleetsim orchestrate -shards m -out dir [-scenarios N] [-seed S]
//	         [-stall 30s] [-retries 2] [-format json|table] [-results]
//	fleetsim train [-seed 1] [-workloads 64] [-workers 0] [-platforms a,b]
//	         [-classes steady,thermal] [-arms heuristic,maxaccuracy,minenergy]
//	         [-epochs 2] [-epsilon 0.1] [-missweight 1] [-energyweight 0.05]
//	         [-out table.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usageError is an invocation mistake — a bad flag, a stray argument, an
// unknown subcommand — that run has already reported on stderr together
// with the usage text. main exits 2 for it, as the flag package does.
type usageError struct{ error }

const overview = `usage: fleetsim [flags]                    run a fleet (or one shard with -shard)
       fleetsim merge [flags] shard...     merge shard files into a report
       fleetsim orchestrate [flags]        dispatch, supervise and merge shard processes
       fleetsim train [flags]              train a learned policy table
run 'fleetsim <subcommand> -h' for a subcommand's flags`

// run executes one fleetsim invocation; args follow the program name.
// Reports and tables go to stdout, progress and summaries to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	name, cmd := "fleetsim", runFleet
	// Subcommands are dispatched strictly: an unknown word where a
	// subcommand goes must fail with usage, not silently run the default
	// fleet ("fleetsim mrege a.json b.json" burning minutes of simulation
	// was the failure mode).
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "merge":
			cmd = merge
		case "orchestrate":
			cmd = orchestrate
		case "train":
			cmd = train
		default:
			fmt.Fprintf(stderr, "fleetsim: unknown subcommand %q (want merge, orchestrate or train)\n", args[0])
			fmt.Fprintln(stderr, overview)
			return usageError{fmt.Errorf("unknown subcommand %q", args[0])}
		}
		name, args = name+" "+args[0], args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := cmd(fs, args, stdout, stderr); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// parse parses args into fs, whose -h text is synopsis followed by the
// flag list. Flag errors and stray arguments come back as usage errors;
// only merge takes positional arguments (its shard files).
func parse(fs *flag.FlagSet, args []string, synopsis string, positional bool) error {
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), synopsis)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if !positional && fs.NArg() > 0 {
		// Stray positional args mean a mistyped invocation; running anyway
		// would silently ignore the user's intent.
		return badUsage(fs, "unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// badUsage reports an invocation mistake with fs's usage text.
func badUsage(fs *flag.FlagSet, format string, a ...any) error {
	err := fmt.Errorf(format, a...)
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	fs.Usage()
	return usageError{err}
}

// genFlags are the scenario-generator flags of run, orchestrate and train.
// The policy list is -policies for the first two and -arms for train.
type genFlags struct {
	seed                         uint64
	workers                      int
	platforms, classes, policies string
	policiesFlag                 string // "policies" or "arms"
}

const policiesUsage = "comma-separated planning policies to sweep over the same workloads (empty = heuristic; total runs = scenarios × policies)"

func addGenFlags(fs *flag.FlagSet, policiesFlag, usage string) *genFlags {
	g := &genFlags{policiesFlag: policiesFlag}
	fs.Uint64Var(&g.seed, "seed", 1, "master seed (scenario seeds, and train's exploration draws, derive from it)")
	fs.IntVar(&g.workers, "workers", 0, "worker pool size, per shard process under orchestrate (0 = NumCPU, negative is refused; outputs are identical for any value)")
	fs.StringVar(&g.platforms, "platforms", "", "comma-separated platform names (empty = all)")
	fs.StringVar(&g.classes, "classes", "", "comma-separated scenario classes: steady,mixed,bursty,thermal,churn,faulty (empty = all)")
	fs.StringVar(&g.policies, policiesFlag, "", usage)
	return g
}

// config is the generator config the flags describe, after refusing a
// negative -workers. fleet.NewGenerator, fleet.Orchestrate and fleet.Train
// each validate the config, unknown classes included, before any
// simulation.
func (g *genFlags) config(fs *flag.FlagSet) (fleet.GeneratorConfig, error) {
	if g.workers < 0 {
		// The library reads a negative pool size as NumCPU, so -workers -5
		// would otherwise run silently, on every shard under orchestrate.
		return fleet.GeneratorConfig{}, badUsage(fs, "-workers %d must be non-negative (0 = NumCPU)", g.workers)
	}
	var lists [3][]string
	for i, f := range []struct{ name, value string }{
		{"platforms", g.platforms}, {"classes", g.classes}, {g.policiesFlag, g.policies},
	} {
		var err error
		if lists[i], err = split(fs, f.name, f.value); err != nil {
			return fleet.GeneratorConfig{}, err
		}
	}
	cfg := fleet.GeneratorConfig{Seed: g.seed, Platforms: lists[0], Policies: lists[2]}
	for _, c := range lists[1] {
		cfg.Classes = append(cfg.Classes, fleet.Class(c))
	}
	return cfg, nil
}

// split splits the comma-separated value of list flag name; empty means
// none. An empty entry ("a,", ",a" or ",") is a usage error: the library
// reads an empty policy name as the default one, so a stray comma would
// silently add a run to every workload.
func split(fs *flag.FlagSet, name, s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	list := strings.Split(s, ",")
	if slices.Contains(list, "") {
		return nil, badUsage(fs, "-%s %q has an empty entry", name, s)
	}
	return list, nil
}

// reportFlags are the report-shaping flags of run, merge and orchestrate.
type reportFlags struct {
	format  string
	results bool
	out     string
}

// addReportFlags registers -format and -results on fs, and -out with
// outUsage unless that is empty: orchestrate's -out is its stream
// directory, and its report always goes to stdout.
func addReportFlags(fs *flag.FlagSet, outUsage string) *reportFlags {
	r := &reportFlags{}
	fs.StringVar(&r.format, "format", "json", "output format: json or table")
	fs.BoolVar(&r.results, "results", false, "include per-scenario results (json format)")
	if outUsage != "" {
		fs.StringVar(&r.out, "out", "", outUsage)
	}
	return r
}

// check refuses report flags that cannot be honoured: a bad -format or
// -results must fail now, not after minutes of fleet execution.
func (r *reportFlags) check() error {
	if r.format != "json" && r.format != "table" {
		return fmt.Errorf("unknown format %q (want json or table)", r.format)
	}
	if r.results && r.format == "table" {
		return errors.New("-results needs -format json (tables carry no per-scenario results)")
	}
	return nil
}

// write emits the report to -out, or to stdout without one. Every report
// goes through here, so single-process, merge and orchestrate outputs
// format identically — that is what lets CI cmp them.
func (r *reportFlags) write(stdout io.Writer, rep fleet.Report, res []fleet.Result) (err error) {
	w := stdout
	if r.out != "" {
		f, cerr := os.Create(r.out)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if r.format == "table" {
		return printTables(w, rep)
	}
	if !r.results {
		res = nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		fleet.Report
		Results []fleet.Result `json:"results,omitempty"`
	}{rep, res})
}

func runFleet(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	scenarios := fs.Int("scenarios", 64, "number of scenarios in the fleet (the whole fleet, even with -shard)")
	g := addGenFlags(fs, "policies", policiesUsage)
	rf := addReportFlags(fs, "write output to this file instead of stdout (required with -shard: the shard stream file)")
	progress := fs.Bool("progress", false, "print progress to stderr")
	shard := fs.String("shard", "", "run only shard i of m, as \"i/m\" (1-based), streaming it to -out for \"fleetsim merge\"")
	resume := fs.Bool("resume", false, "with -shard: resume an interrupted stream at -out from its last flushed scenario")
	syncevery := fs.Int("syncevery", 0, "with -shard: fsync the stream file every N records (0 = never; per-record flushes already survive process death, fsync adds power-loss durability)")
	if err := parse(fs, args, overview, false); err != nil {
		return err
	}
	if err := rf.check(); err != nil {
		return err
	}
	if *syncevery < 0 {
		return fmt.Errorf("-syncevery %d must be non-negative", *syncevery)
	}
	shardIdx, shardCount, err := parseShard(*shard)
	if err != nil {
		return err
	}
	cfg, err := g.config(fs)
	if err != nil {
		return err
	}
	gen, err := fleet.NewGenerator(cfg)
	if err != nil {
		return err
	}
	runs, err := gen.Runs(*scenarios)
	if err != nil {
		return err
	}
	runner := &fleet.Runner{Workers: g.workers, SyncEvery: *syncevery}
	if *progress {
		runner.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\rfleetsim: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	if shardCount == 0 {
		if *resume || *syncevery > 0 {
			return errors.New("-resume/-syncevery require -shard (they act on the shard stream file)")
		}
		res := runner.Run(gen.Generate(runs))
		return rf.write(stdout, fleet.Aggregate(g.seed, res), res)
	}
	if rf.out == "" {
		return errors.New("-shard requires -out (the shard stream file)")
	}
	// A shard emits a stream, not a report; refuse report-shaping flags
	// instead of silently dropping them.
	if rf.format != "json" || rf.results {
		return errors.New("-format/-results have no effect with -shard; use them on \"fleetsim merge\"")
	}
	if !*resume {
		// A fresh shard must not silently extend or clobber an existing
		// file; resuming is an explicit choice.
		if fi, err := os.Stat(rf.out); err == nil && fi.Size() > 0 {
			return fmt.Errorf("%s already exists; pass -resume to continue it", rf.out)
		}
	}
	_, err = runner.ResumeShard(rf.out, cfg, *scenarios, shardIdx, shardCount)
	return err
}

func merge(fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	rf := addReportFlags(fs, "write output to this file instead of stdout")
	if err := parse(fs, args, "usage: fleetsim merge [-format json|table] [-results] [-out file] shard.ndjson...", true); err != nil {
		return err
	}
	if err := rf.check(); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return badUsage(fs, "no shard files given")
	}
	shards := make([]fleet.ShardResult, 0, fs.NArg())
	for _, path := range fs.Args() {
		s, err := fleet.ReadShardFile(path) // its errors name the file
		if err != nil {
			return err
		}
		shards = append(shards, s)
	}
	rep, res, err := fleet.Merge(shards...)
	if err != nil {
		return err
	}
	return rf.write(stdout, rep, res)
}

func orchestrate(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	scenarios := fs.Int("scenarios", 64, "number of scenarios in the fleet")
	g := addGenFlags(fs, "policies", policiesUsage)
	rf := addReportFlags(fs, "")
	shards := fs.Int("shards", 2, "number of shard subprocesses to dispatch")
	out := fs.String("out", "", "directory for per-shard stream files (required; partial streams there are resumed)")
	stall := fs.Duration("stall", 30*time.Second, "kill a shard whose stream makes no progress for this long (0 disables)")
	retries := fs.Int("retries", 2, "retries per shard after its first failed attempt (non-negative)")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "wait before the first retry, doubling per attempt")
	quiet := fs.Bool("quiet", false, "suppress shard progress on stderr")
	if err := parse(fs, args, "usage: fleetsim orchestrate -shards m -out dir [flags]", false); err != nil {
		return err
	}
	if err := rf.check(); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out directory is required")
	}
	if *retries < 0 {
		// MaxAttempts <= 0 means the default, so -retries -1 would
		// otherwise silently run three attempts.
		return fmt.Errorf("-retries %d must be non-negative", *retries)
	}
	if *stall < 0 {
		// StallTimeout <= 0 disables detection, so a negative -stall would
		// otherwise silently turn it off; 0 is the way to ask for that.
		return fmt.Errorf("-stall %v must be non-negative (0 disables stall detection)", *stall)
	}
	if *backoff <= 0 {
		// RetryBackoff <= 0 means the library's 250ms default, not this
		// flag's documented 500ms.
		return fmt.Errorf("-backoff %v must be positive", *backoff)
	}
	cfg, err := g.config(fs)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	// Each shard is this same binary in -resume mode: a retry after a
	// crash or a stall-kill picks up from the last flushed scenario.
	argv := func(spec fleet.ShardSpec) []string {
		a := []string{exe,
			"-scenarios", fmt.Sprint(*scenarios),
			"-seed", fmt.Sprint(g.seed),
			"-shard", fmt.Sprintf("%d/%d", spec.Index+1, spec.Count),
			"-resume",
			"-out", spec.Path,
			"-workers", fmt.Sprint(g.workers),
		}
		for _, f := range []struct{ name, value string }{
			{"-platforms", g.platforms}, {"-classes", g.classes}, {"-policies", g.policies},
		} {
			if f.value != "" {
				a = append(a, f.name, f.value)
			}
		}
		return a
	}
	ocfg := fleet.OrchestratorConfig{
		Config:       cfg,
		Workloads:    *scenarios,
		Shards:       *shards,
		Dir:          *out,
		Start:        fleet.CommandStart(argv, stderr),
		StallTimeout: *stall,
		MaxAttempts:  *retries + 1,
		RetryBackoff: *backoff,
	}
	if !*quiet {
		ocfg.Logf = func(f string, args ...any) { fmt.Fprintf(stderr, f+"\n", args...) }
	}
	rep, res, err := fleet.Orchestrate(ocfg)
	if err != nil {
		return err
	}
	return rf.write(stdout, rep, res)
}

func train(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	g := addGenFlags(fs, "arms", "comma-separated base policies to select among (empty = heuristic,maxaccuracy,minenergy)")
	workloads := fs.Int("workloads", 64, "fleet workloads to train on")
	epochs := fs.Int("epochs", 2, "epsilon-greedy refinement epochs after the per-arm sweep")
	epsilon := fs.Float64("epsilon", 0.1, "per-plan exploration probability during refinement")
	missWeight := fs.Float64("missweight", 1, "reward weight of the miss rate")
	energyWeight := fs.Float64("energyweight", 0.05, "reward weight of average power (per watt)")
	out := fs.String("out", "table.json", "trained table output path (\"-\" = stdout)")
	if err := parse(fs, args, "usage: fleetsim train [flags]", false); err != nil {
		return err
	}
	// The flag defaults are non-zero, so both weights at zero means the
	// user explicitly asked for a reward that scores every run 0 — the
	// table's argmin would be arbitrary. Refuse rather than silently
	// substituting the library defaults for an explicit request.
	if *missWeight == 0 && *energyWeight == 0 {
		return errors.New("-missweight 0 -energyweight 0 is a degenerate reward (every run scores 0); set at least one weight")
	}
	gc, err := g.config(fs)
	if err != nil {
		return err
	}
	table, rep, err := fleet.Train(fleet.TrainConfig{
		Seed:         gc.Seed,
		Workloads:    *workloads,
		Workers:      g.workers,
		Platforms:    gc.Platforms,
		Classes:      gc.Classes,
		Arms:         gc.Policies,
		Epochs:       *epochs,
		Epsilon:      *epsilon,
		MissWeight:   *missWeight,
		EnergyWeight: *energyWeight,
	})
	if err != nil {
		return err
	}
	if *out == "-" {
		raw, err := table.MarshalBytes()
		if err != nil {
			return err
		}
		if _, err := stdout.Write(raw); err != nil {
			return err
		}
	} else {
		if err := table.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fleetsim train: wrote %s (%d states, %d runs)\n", *out, rep.States, rep.Runs)
	}
	return printTrainSummary(stderr, table, rep)
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

func printTables(w io.Writer, rep fleet.Report) error {
	t := trace.NewTable(
		fmt.Sprintf("fleet report (seed %d, %d scenarios)", rep.Seed, rep.Overall.Scenarios),
		"group", "scen", "frames", "miss%", "meanLat(ms)", "p95Lat(ms)",
		"energy(J)", "thermal%", "plans", "migr", "oppSw")
	addRow := func(name string, s fleet.GroupStats) {
		t.AddRow(name, s.Scenarios, s.Frames, 100*s.MissRate,
			1000*s.MeanLatencyS, 1000*s.P95LatencyS,
			s.EnergyMJ/1000, 100*s.ThermalRate,
			s.Plans, s.Migrations, s.OPPSwitches)
	}
	addRow("overall", rep.Overall)
	for _, name := range slices.Sorted(maps.Keys(rep.ByPlatform)) {
		addRow("platform:"+name, rep.ByPlatform[name])
	}
	for _, c := range slices.Sorted(maps.Keys(rep.ByClass)) {
		addRow("class:"+string(c), rep.ByClass[c])
	}
	for _, name := range slices.Sorted(maps.Keys(rep.ByPolicy)) {
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
		for _, c := range slices.Sorted(maps.Keys(rep.ByClass)) {
			addFaultRow("class:"+string(c), rep.ByClass[c])
		}
		for _, name := range slices.Sorted(maps.Keys(rep.ByPolicy)) {
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
	for _, name := range slices.Sorted(maps.Keys(rep.Regret)) {
		r := rep.Regret[name]
		rt.AddRow(name, r.Workloads, r.OracleWins,
			100*r.MissRateRegret, r.EnergyRegretMJ/1000)
	}
	_, err := rt.WriteTo(w)
	return err
}

// printTrainSummary renders the training outcome: runs credited and how
// many of them were replayed rather than simulated, per-arm sweep cost
// (the bar the learned table must beat), how often each arm won a state,
// and the fallback for unseen states.
func printTrainSummary(w io.Writer, table *rtm.LearnedTable, rep fleet.TrainReport) error {
	chosen := map[string]int{}
	for _, st := range table.States {
		chosen[st.Arm]++
	}
	t := trace.NewTable(
		fmt.Sprintf("training summary (seed %d: %d workloads, %d runs, %d replayed, %d states)",
			table.Seed, rep.Workloads, rep.Runs, rep.Replayed, rep.States),
		"arm", "sweepRuns", "sweepMeanCost", "statesWon")
	for _, name := range slices.Sorted(maps.Keys(rep.Sweep)) {
		s := rep.Sweep[name]
		t.AddRow(name, s.Runs, s.MeanCost, chosen[name])
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "fallback for unseen states: %s\n", table.Fallback)
	return err
}
