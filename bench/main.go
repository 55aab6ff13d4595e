// Command bench is emlrtm's end-to-end benchmark. One invocation runs one
// workload in one process, timing each layer from outside through its public
// calls; it checks the outputs, prints every metric as "name value unit" and
// ends with one JSON line:
//
//	bash bench/run.sh --workload engine-bound --seed 3 --seconds 15 --trace 0
//
// -seconds sizes the work, not a deadline: each workload runs a fixed number
// of scenarios per second of budget, so the same seed and budget always give
// the same inputs and the same simulated results, whatever the host speed.
// Timing metrics are calibrated against a reference kernel run between the
// workload's steps, so that the host's own drift cancels (calib.go).
// -trace 1 repeats the workload with per-run spans and reports the per-layer
// metrics instead of the end-to-end ones. README.md lists the workloads,
// metrics and bounds.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
)

// policies is the planning-policy sweep every fleet workload runs each
// sampled workload under.
var policies = []string{"heuristic", "maxaccuracy", "minenergy"}

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 5

// setupChunks is how many reference chunks run between set-up repeats.
const setupChunks = 8

// p99MinBeyond is how many samples must lie beyond the nearest-rank p99 for
// run_p99_ms to be reported.
const p99MinBeyond = 10

// workloads maps each workload name to the function that runs it. Sizes and
// the reasons for each choice are documented beside those functions.
var workloads = map[string]func(b *bench) error{
	"engine-bound":    runEngineBound,
	"plan-bound":      runPlanBound,
	"train":           runTrain,
	"shard-roundtrip": runShardRoundtrip,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one printed measurement; layer marks the per-layer ones that
// -trace 1 reports in place of the end-to-end ones.
type metric struct {
	name  string
	value float64
	unit  string
	layer bool
}

// bench is one invocation's state: its settings, the metrics recorded so
// far and the outcome of its checks.
type bench struct {
	out     io.Writer // metric lines and the JSON summary
	seed    uint64
	seconds float64 // work scale in seconds of budget
	quick   bool
	trace   bool
	repo    string
	workdir string

	metrics   []metric
	attempted int
	failed    int
	problems  []string

	// The untraced timed work, cut into calibrated segments: the set-up
	// repetitions, and the timed calls runs_per_s is taken over.
	clk        *clock
	setupSpans []segRange
	rateSpans  []segRange

	// The untraced timed calls' host time and runtime work, for the go.*
	// and overhead metrics.
	goStats   goDelta
	untracedS float64

	// The traced phase (-trace 1): the same calls as the untraced timed
	// ones, their host time, and the shard-file counts only it measures.
	tr             *tracer
	tracedS        float64
	streamBytes    int64
	latencySamples int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one invocation, printing its results to stdout, and returns
// the exit code: 0 when every check passed, 1 when one failed, 2 on bad
// flags.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 15, "work budget: the workload runs about this many seconds of scenarios on a 2-vCPU host")
	trace := fs.Int("trace", 0, "1 = also run the workload traced and report the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "run a few scenarios per workload (tests)")
	repo := fs.String("repo", ".", "repository root, for the golden reports under internal/fleet/testdata")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for shard files and spans.ndjson")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "bench: -seconds %d must be at least 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "bench: -trace %d must be 0 or 1\n", *trace)
		return 2
	}
	b := &bench{
		out:     stdout,
		seed:    *seed,
		seconds: float64(*seconds),
		quick:   *quick,
		trace:   *trace == 1,
		repo:    *repo,
		workdir: *workdir,
		clk:     newClock(),
	}
	if b.trace {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := checkGolden(b.repo); err != nil {
		// Without the reference reports nothing below can be trusted, and a
		// checkout without them is not a benchmarkable tree.
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := drive(b); err != nil {
		// A failed Train, shard write, read or merge loses the whole
		// workload, not one run.
		b.fail("%s: %v", *name, err)
		b.attempted = max(b.attempted, 1)
		b.failed = b.attempted
	}
	return b.finish()
}

// size converts a per-second scenario rate into this run's count.
func (b *bench) size(perSecond float64, quick int) int {
	if b.quick {
		return quick
	}
	return max(1, int(perSecond*b.seconds))
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, format, args...)
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) e2e(name string, v float64, unit string) {
	b.metrics = append(b.metrics, metric{name: name, value: v, unit: unit})
}

func (b *bench) layer(name string, v float64, unit string) {
	b.metrics = append(b.metrics, metric{name: name, value: v, unit: unit, layer: true})
}

// setup runs prepare setupRepeats times, each timed as a span of its own;
// setup_s is the median. Each repeat rebuilds the inputs from scratch, so
// the last one's are used. Each repeat starts from a collected heap, so
// garbage from the one before does not decide when it collects. prepare
// generates its scenarios through the rangeFunc it is given, which cuts
// generation into calibrated steps.
func (b *bench) setup(prepare func(rangeFunc) error) error {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		for j := 0; j < setupChunks; j++ {
			b.clk.chunk()
		}
		lo := b.clk.start()
		if err := prepare(b.steppedRange); err != nil {
			return err
		}
		b.setupSpans = append(b.setupSpans, segRange{lo: lo, hi: b.clk.stop()})
	}
	for j := 0; j < setupChunks; j++ {
		b.clk.chunk()
	}
	return nil
}

// rangeFunc returns a generator's scenarios [lo, hi).
type rangeFunc func(g *fleet.Generator, lo, hi int) []fleet.Scenario

// plainRange is the rangeFunc of untimed and traced generation.
func plainRange(g *fleet.Generator, lo, hi int) []fleet.Scenario { return g.GenerateRange(lo, hi) }

// genBatch is how many scenarios set-up generates per calibrated step,
// about a millisecond's worth.
const genBatch = 64

// steppedRange is the rangeFunc of set-up. It generates in batches of
// genBatch and ends a calibrated step after each, so set-up is calibrated
// as closely as the runs are; a single step of a tenth of a second or more
// would have only the chunks just before and after it to go on.
func (b *bench) steppedRange(g *fleet.Generator, lo, hi int) []fleet.Scenario {
	out := make([]fleet.Scenario, 0, max(0, hi-lo))
	for i := lo; i < hi; i += genBatch {
		out = append(out, g.GenerateRange(i, min(hi, i+genBatch))...)
		b.clk.mark(segOther, false)
	}
	return out
}

// progressClock returns a Runner.Progress callback that ends a segment at
// every completed run. Each run's segment is a per-run latency sample,
// except the first of a call: its segment also covers the call's start-up.
func (b *bench) progressClock() func(done, total int) {
	first := true
	return func(int, int) {
		if first {
			first = false
			b.clk.mark(segOther, false)
			return
		}
		b.clk.mark(segRun, false)
	}
}

// outcome accumulates the simulated results of a set of runs: the inputs
// of miss_rate, energy_mj_per_frame and outcome_sha256.
type outcome struct {
	runs, errs       int
	frames, failures int
	energyMJ         float64
	sum              hash.Hash
}

func newOutcome() *outcome { return &outcome{sum: sha256.New()} }

// add folds in one batch of results and the report aggregated from them.
func (o *outcome) add(results []fleet.Result, rep fleet.Report) {
	ov := rep.Overall
	o.runs += len(results)
	o.errs += ov.Errors
	o.frames += ov.Frames
	o.failures += ov.Missed + ov.Dropped + ov.JobsAborted
	o.energyMJ += ov.EnergyMJ
	hashResults(o.sum, results)
}

func (o *outcome) hex() string { return hex.EncodeToString(o.sum.Sum(nil)) }

// hashResults feeds each run's identity and simulated outcome into h: id,
// released, completed, missed, dropped, aborted, energy and plans.
func hashResults(h hash.Hash, results []fleet.Result) {
	var buf [8 * 8]byte
	for _, r := range results {
		for i, v := range []uint64{
			uint64(r.ID), uint64(r.Released), uint64(r.Completed), uint64(r.Missed),
			uint64(r.Dropped), uint64(r.JobsAborted), math.Float64bits(r.EnergyMJ), uint64(r.Plans),
		} {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		h.Write(buf[:])
	}
}

// record publishes an untraced outcome as end-to-end metrics.
func (b *bench) record(o *outcome) {
	b.attempted += o.runs
	b.failed += o.errs
	if o.errs > 0 {
		b.fail("%d of %d runs failed", o.errs, o.runs)
	}
	if o.frames == 0 {
		b.fail("runs released no frames")
		return
	}
	b.e2e("miss_rate", float64(o.failures)/float64(o.frames), "frac")
	b.e2e("energy_mj_per_frame", o.energyMJ/float64(o.frames), "mJ")
	b.printf("outcome_sha256 %s\n", o.hex())
}

// goDelta is the Go runtime's allocation and GC work over the untraced
// timed phase, and the scenario runs it covered.
type goDelta struct {
	runs       int
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

// timed runs one untraced timed call as a span of segments on the
// calibrated clock, adding its host time to untracedS and its allocation
// and GC work to goStats. fn returns how many scenario runs it executed; with
// rate set they and the span's time count towards runs_per_s. The call
// starts from a collected heap, so garbage left by set-up or an earlier call
// is not charged to it.
func (b *bench) timed(rate bool, fn func() (int, error)) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lo := b.clk.start()
	runs, err := fn()
	hi := b.clk.stop()
	runtime.ReadMemStats(&after)
	b.untracedS += b.clk.wallNS(lo, hi) / 1e9
	if rate {
		b.rateSpans = append(b.rateSpans, segRange{lo: lo, hi: hi, runs: runs})
	}
	d := &b.goStats
	d.runs += runs
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.mallocs += after.Mallocs - before.Mallocs
	d.gcCycles += after.NumGC - before.NumGC
	d.gcPauseNS += after.PauseTotalNs - before.PauseTotalNs
	return err
}

// tracedCall runs the traced counterpart of a timed call, from a collected
// heap likewise, and adds its host time to tracedS.
func (b *bench) tracedCall(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	b.tracedS += time.Since(t0).Seconds()
	return err
}

// finish prints the latency and memory metrics, the per-layer metrics of a
// traced run, every metric line and the JSON summary, and returns the exit
// code.
func (b *bench) finish() int {
	b.timings()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.e2e("peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}
	if b.trace {
		b.emitLayers()
	}

	out := map[string]any{}
	for _, m := range b.metrics {
		b.printf("%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		if m.layer == b.trace {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "bench: check failed: %s\n", p)
	}
	correct := len(b.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	b.printf("%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// timings records the timing metrics of the untraced phase from its
// calibrated segments: setup_s, runs_per_s, run_p50_ms and run_p99_ms. It
// also prints the uncalibrated throughput and the host's speed relative to
// the reference kernel's nominal one, which are not metrics.
func (b *bench) timings() {
	c := b.clk
	cal := c.calibrated()
	sum := func(r segRange) float64 {
		var s float64
		for _, v := range cal[r.lo:r.hi] {
			s += v
		}
		return s
	}
	if len(b.setupSpans) > 0 {
		times := make([]float64, len(b.setupSpans))
		for i, r := range b.setupSpans {
			times[i] = sum(r) / 1e9
		}
		b.e2e("setup_s", median(times), "s")
	}
	var runs int
	var calNS, wallNS float64
	for _, r := range b.rateSpans {
		runs += r.runs
		calNS += sum(r)
		wallNS += c.wallNS(r.lo, r.hi)
	}
	if runs > 0 {
		b.e2e("runs_per_s", float64(runs)/(calNS/1e9), "1/s")
		b.printf("host_runs_per_s %s 1/s\n", strconv.FormatFloat(float64(runs)/(wallNS/1e9), 'g', -1, 64))
	}
	var lat []float64
	for i, s := range c.segs {
		if s.kind == segRun {
			lat = append(lat, cal[i]/1e6)
		}
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		b.e2e("run_p50_ms", quantile(lat, 50, 100), "ms")
		if v, beyond := p99(lat); beyond >= p99MinBeyond {
			b.e2e("run_p99_ms", v, "ms")
		} else {
			b.printf("run_p99_ms withheld: %d samples beyond it, need %d\n", beyond, p99MinBeyond)
		}
		b.printf("run_samples %d count\n", len(lat))
	}
	if len(c.chunks) > 0 {
		b.printf("host_speed %s x (%d reference chunks, %.1f%% of timed host time)\n",
			strconv.FormatFloat(refNominalNS/median(c.chunks), 'g', 4, 64), len(c.chunks),
			100*c.refTotalNS/(c.refTotalNS+c.wallNS(0, len(c.segs))))
	}
}

// quantileIndex is the nearest-rank index, ceil(n·num/den) − 1, of the
// num/den quantile among n sorted samples. Integer arithmetic keeps ranks
// such as ceil(1000 × 0.99) exact.
func quantileIndex(n, num, den int) int {
	return min(n-1, max(0, (n*num+den-1)/den-1))
}

func quantile(sorted []float64, num, den int) float64 {
	return sorted[quantileIndex(len(sorted), num, den)]
}

// p99 returns the nearest-rank 99th percentile of sorted samples and how
// many samples lie beyond it.
func p99(sorted []float64) (float64, int) {
	idx := quantileIndex(len(sorted), 99, 100)
	return sorted[idx], len(sorted) - 1 - idx
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// checkGolden reruns the two golden fleets at seed 1 and requires their
// reports to match the committed files byte for byte.
func checkGolden(repo string) error {
	for _, g := range []struct {
		file string
		cfg  fleet.GeneratorConfig
		n    int
	}{
		{"golden_seed1_n32.json", fleet.GeneratorConfig{Seed: 1}, 32},
		{"golden_faulty_seed1_n16.json", fleet.GeneratorConfig{Seed: 1, Classes: []fleet.Class{fleet.ClassFaulty}}, 16},
	} {
		path := filepath.Join(repo, "internal", "fleet", "testdata", g.file)
		want, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("golden report: %w", err)
		}
		rep, _, err := fleet.Run(g.cfg, g.n, 1)
		if err != nil {
			return fmt.Errorf("golden fleet %s: %w", g.file, err)
		}
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if !bytes.Equal(append(got, '\n'), want) {
			return fmt.Errorf("fleet report at seed 1 no longer matches %s", path)
		}
	}
	return nil
}
