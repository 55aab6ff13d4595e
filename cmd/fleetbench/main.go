// Command fleetbench records the simulator's hot-path costs in a
// machine-readable BENCH_fleet.json, the repo's perf trajectory file.
//
// Two kinds of measurement run:
//
//   - a seeded N-scenario × P-policy fleet sweep timed wall-clock, giving
//     scenarios/sec (the number that bounds design-space exploration and
//     learned-policy training set generation), plus per-scenario wall-time
//     p50/p95 at the nearest rank the fleet reports use;
//   - every internal/hotbench row as a testing.Benchmark — engine-run,
//     engine-new, engine-run-managed, replan, replan-elided, policy-plan
//     per registered policy, stream-append and stream-read — each
//     reporting ns/op, B/op and allocs/op.
//
// Profile the timed sweep with -cpuprofile/-memprofile: the capture window
// covers exactly the timed fleet sweep, so a hot-path hunt sees the same
// work mix the scenarios/sec figure measures. Inspect with
// `go tool pprof fleetbench cpu.out`.
//
// When -out points at an existing file, its "baseline" object and history
// are preserved, so reruns keep the recorded numbers next to fresh ones.
// The baseline's allocs/op are the budgets `go test ./...` enforces
// (TestHotPathAllocs in the root package). Record new ones with
// -rebaseline, at GOMAXPROCS=1 so the recorded environment is the one the
// test measures under. Throughput is recorded, not gated: wall-clock
// numbers belong to the repository benchmark under bench/. Compare a
// before/after pair of row runs with:
//
//	go test -run '^$' -bench Rows -benchmem -count 10 ./internal/hotbench > old.txt
//	# ...apply a change...
//	go test -run '^$' -bench Rows -benchmem -count 10 ./internal/hotbench > new.txt
//	benchstat old.txt new.txt
//
// Usage:
//
//	fleetbench [-scenarios 64] [-seed 1] [-workers 0] [-policies a,b,c]
//	           [-quick] [-benchtime 100ms] [-out BENCH_fleet.json] [-note text]
//	           [-rebaseline] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"encoding/json"
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
	"github.com/emlrtm/emlrtm/internal/hotbench"
	"github.com/emlrtm/emlrtm/internal/rtm"
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
	// so deterministic for a seed, and informational — no gate reads them.
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
	rebaseline := flag.Bool("rebaseline", false, "record this run's numbers as the new baseline (replacing any recorded one)")
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
	for _, r := range hotbench.Rows() {
		cur.Benchmarks[r.Name] = record(r.Name, r.Bench)
	}

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
		if err := atomicfile.WriteFile(*out, func(w io.Writer) error {
			_, werr := w.Write(enc)
			return werr
		}); err != nil {
			log.Fatalf("fleetbench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "fleetbench: wrote %s\n", *out)
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
	fn.setWallMs(ms)
	ps := runner.PlanStats()
	fn.PlansTotal = ps.Plans
	fn.PlansElided = ps.Elided
	fmt.Fprintf(os.Stderr, "fleetbench: plan reuse: %d plans, %d elided\n", ps.Plans, ps.Elided)
	return fn, nil
}

// setWallMs fills the per-scenario wall-time percentiles from sorted
// samples.
func (fn *FleetNumbers) setWallMs(ms []float64) {
	if n := len(ms); n > 0 {
		fn.P50WallMs = ms[fleet.NearestRank(n, 0.50)]
		fn.P95WallMs = ms[fleet.NearestRank(n, 0.95)]
		fn.MaxWallMs = ms[n-1]
	}
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
