package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain doubles the test binary as a real shard process: invoked as
//
//	<test-binary> __fleet_shard_helper <mode> <path> <seed> <total> <index> <count>
//
// it never reaches the test runner. Mode "run" executes ResumeShard — the
// exact code path fleetsim -resume drives — so orchestrator tests can
// dispatch, SIGKILL and resume genuine OS processes. Mode "stall" appends
// one record and then hangs, simulating a dead or wedged shard for the
// straggler-detection path.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "__fleet_shard_helper" {
		shardHelper(os.Args[2:])
		return
	}
	os.Exit(m.Run())
}

func shardHelper(args []string) {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "shard helper: %v\n", err)
		os.Exit(1)
	}
	if len(args) != 6 {
		die(fmt.Errorf("want 6 args, got %d", len(args)))
	}
	mode, path := args[0], args[1]
	seed, err1 := strconv.ParseUint(args[2], 10, 64)
	total, err2 := strconv.Atoi(args[3])
	index, err3 := strconv.Atoi(args[4])
	count, err4 := strconv.Atoi(args[5])
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			die(err)
		}
	}
	cfg := helperConfig(seed)
	if mode == "runf" {
		cfg = helperFaultyConfig(seed)
	}
	switch mode {
	case "run", "runf":
		if _, err := (&Runner{Workers: 1}).ResumeShard(path, cfg, total, index, count); err != nil {
			die(err)
		}
	case "stall":
		// One record of progress, then silence: the orchestrator must
		// notice the flat mtime and kill us.
		gen, err := NewGenerator(cfg)
		if err != nil {
			die(err)
		}
		lo, hi := ShardRange(gen.RunCount(total), index, count)
		f, err := os.Create(path)
		if err != nil {
			die(err)
		}
		sw, err := NewStreamWriter(f, StreamHeader{Config: cfg, Total: gen.RunCount(total), Lo: lo, Hi: hi})
		if err != nil {
			die(err)
		}
		if err := sw.Append(RunOne(gen.GenerateRange(lo, lo+1)[0])); err != nil {
			die(err)
		}
		time.Sleep(time.Minute)
	default:
		die(fmt.Errorf("unknown mode %q", mode))
	}
	os.Exit(0)
}

// helperConfig pins the fleet the helper processes run; parent tests must
// use the same derivation.
func helperConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{Seed: seed, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}}
}

// helperFaultyConfig is the fault-injection counterpart ("runf" mode):
// every scenario carries seeded cluster-fault windows, so a SIGKILL lands
// mid-fault for the in-flight scenario.
func helperFaultyConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{Seed: seed, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassFaulty}}
}

// helperArgv builds the helper-process argv for CommandStart.
func helperArgv(mode string, seed uint64, total int) func(ShardSpec) []string {
	return func(spec ShardSpec) []string {
		return []string{os.Args[0], "__fleet_shard_helper", mode, spec.Path,
			strconv.FormatUint(seed, 10), strconv.Itoa(total),
			strconv.Itoa(spec.Index), strconv.Itoa(spec.Count)}
	}
}

func reportJSON(t *testing.T, rep Report, res []Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Rep Report
		Res []Result
	}{rep, res})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOrchestrateInProcess: the orchestrator over in-process shards, each
// running ResumeShard — one of them resuming a crash-truncated stream left
// in the directory — must reproduce the single-process report and results
// byte-for-byte.
func TestOrchestrateInProcess(t *testing.T) {
	cfg := GeneratorConfig{Seed: 31, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady, ClassBursty}}
	const workloads = 8
	const shards = 3

	singleRep, singleRes, err := Run(cfg, workloads, 2)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Leave a crashed shard 2 behind: header, one intact record, one torn
	// line. The orchestrator must resume it, not recompute or reject it.
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := gen.RunCount(workloads)
	lo, hi := ShardRange(runs, 1, shards)
	crashed := filepath.Join(dir, StreamFileName(1, shards))
	f, err := os.Create(crashed)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(f, StreamHeader{Config: cfg, Total: runs, Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(RunOne(gen.GenerateRange(lo, lo+1)[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logs []string
	var logMu sync.Mutex
	rep, res, err := Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: shards, Dir: dir,
		Start: func(spec ShardSpec) (ShardProcess, error) {
			return inProcessShard(func() error {
				_, err := (&Runner{Workers: 2}).ResumeShard(spec.Path, cfg, workloads, spec.Index, spec.Count)
				return err
			}), nil
		},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, singleRep, singleRes), reportJSON(t, rep, res)) {
		t.Error("orchestrated report differs from single-process run")
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, fmt.Sprintf("merged %d/%d", shards, shards)) {
		t.Errorf("logs never report the final incremental merge:\n%s", joined)
	}
}

// TestOrchestrateRetriesFailedShard: a shard whose first attempt dies
// after partial progress is retried with backoff and resumes; the final
// report is unaffected by the failure.
func TestOrchestrateRetriesFailedShard(t *testing.T) {
	cfg := GeneratorConfig{Seed: 17, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}}
	const workloads = 6
	const shards = 2

	singleRep, singleRes, err := Run(cfg, workloads, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := gen.RunCount(workloads)

	dir := t.TempDir()
	var attemptMu sync.Mutex
	attempts := map[int]int{}
	start := func(spec ShardSpec) (ShardProcess, error) {
		attemptMu.Lock()
		attempts[spec.Index]++
		n := attempts[spec.Index]
		attemptMu.Unlock()
		return inProcessShard(func() error {
			if spec.Index == 0 && n == 1 {
				// First attempt of shard 1: flush one record, then die the
				// way a crashed process does — partial stream, error exit.
				f, err := os.Create(spec.Path)
				if err != nil {
					return err
				}
				defer f.Close()
				lo, hi := ShardRange(runs, spec.Index, spec.Count)
				sw, err := NewStreamWriter(f, StreamHeader{Config: cfg, Total: runs, Lo: lo, Hi: hi})
				if err != nil {
					return err
				}
				if err := sw.Append(RunOne(gen.GenerateRange(lo, lo+1)[0])); err != nil {
					return err
				}
				return fmt.Errorf("simulated crash")
			}
			_, err := (&Runner{Workers: 1}).ResumeShard(spec.Path, cfg, workloads, spec.Index, spec.Count)
			return err
		}), nil
	}

	rep, res, err := Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: shards, Dir: dir,
		Start: start, RetryBackoff: time.Millisecond, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts[0] != 2 {
		t.Errorf("shard 1 ran %d attempts, want 2 (fail, then resumed success)", attempts[0])
	}
	if attempts[1] != 1 {
		t.Errorf("shard 2 ran %d attempts, want 1", attempts[1])
	}
	if !bytes.Equal(reportJSON(t, singleRep, singleRes), reportJSON(t, rep, res)) {
		t.Error("report after crash-and-retry differs from single-process run")
	}

	// A shard that fails every attempt must fail the orchestration with
	// the attempt count in the error.
	_, _, err = Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: 1, Dir: t.TempDir(),
		Start: func(spec ShardSpec) (ShardProcess, error) {
			return inProcessShard(func() error { return fmt.Errorf("always down") }), nil
		},
		RetryBackoff: time.Millisecond, MaxAttempts: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("exhausted-retries error = %v, want attempt count", err)
	}
}

// TestOrchestrateReportsLowestFailedShard: shards finish in any order, so
// a failed orchestration must report its lowest-index failed shard, not
// the first to fail. Shard 2 fails first; shard 1 fails only once the
// orchestrator has logged shard 2's failure.
func TestOrchestrateReportsLowestFailedShard(t *testing.T) {
	var once sync.Once
	failed2 := make(chan struct{})
	start := func(spec ShardSpec) (ShardProcess, error) {
		return inProcessShard(func() error {
			if spec.Index == 0 {
				<-failed2
			}
			return fmt.Errorf("shard index %d down", spec.Index)
		}), nil
	}
	_, _, err := Orchestrate(OrchestratorConfig{
		Config: helperConfig(3), Workloads: 4, Shards: 2, Dir: t.TempDir(),
		Start: start, MaxAttempts: 1,
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(fmt.Sprintf(format, args...), "fleet: shard 2/2 FAILED") {
				once.Do(func() { close(failed2) })
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1/2") || !strings.Contains(err.Error(), "shard index 0 down") {
		t.Fatalf("error %v, want shard 1/2's", err)
	}
}

// inProcessShard adapts a function into a ShardProcess for tests; Kill is
// a no-op (nothing to signal in-process).
type fnProcess struct{ done chan error }

func inProcessShard(fn func() error) ShardProcess {
	p := fnProcess{done: make(chan error, 1)}
	go func() { p.done <- fn() }()
	return p
}

func (p fnProcess) Wait() error { return <-p.done }
func (p fnProcess) Kill() error { return nil }

// TestOrchestrateSIGKILLResume is the headline determinism-under-crash
// test: a real shard OS process is SIGKILLed mid-run, and the orchestrated
// run that follows — resuming the killed shard's stream, running the rest
// — produces a report byte-identical to the single-process fleet.
func TestOrchestrateSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real shard subprocesses")
	}
	const seed = 23
	const workloads = 48
	const shards = 2
	cfg := helperConfig(seed)

	singleRep, singleRes, err := Run(cfg, workloads, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	start := CommandStart(helperArgv("run", seed, workloads), os.Stderr)

	// Launch shard 1 alone and SIGKILL it once it has flushed a few
	// scenarios but (with 24 sequential scenarios ahead) is still mid-run.
	spec := ShardSpec{Index: 0, Count: shards, Path: filepath.Join(dir, StreamFileName(0, shards))}
	proc, err := start(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(spec.Path); err == nil && bytes.Count(data, []byte("\n")) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			proc.Kill()
			t.Fatal("shard process produced no stream records within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := proc.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	proc.Wait()
	data, err := os.ReadFile(spec.Path)
	if err != nil {
		t.Fatal(err)
	}
	flushed := bytes.Count(data, []byte("\n")) - 1 // minus header
	t.Logf("killed shard 1/%d after %d flushed scenarios", shards, flushed)

	// Orchestrate the whole fleet over the same directory: shard 1 resumes
	// from its flushed prefix, shard 2 runs fresh.
	rep, res, err := Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: shards, Dir: dir,
		Start: start, StallTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, singleRep, singleRes), reportJSON(t, rep, res)) {
		t.Error("orchestrated report after SIGKILL differs from single-process run")
	}

	// The resumed stream must have kept the pre-kill prefix, not restarted.
	final, err := os.ReadFile(spec.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(final, data[:bytes.LastIndexByte(data, '\n')+1]) {
		t.Error("resume rewrote the killed shard's flushed prefix instead of extending it")
	}
}

// TestOrchestrateStallKill: a wedged shard (progress, then silence) is
// detected by its stream file no longer growing, killed, and its retry
// resumes past the point it stalled at — still byte-identical to the
// single-process run.
func TestOrchestrateStallKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real shard subprocesses")
	}
	const seed = 29
	const workloads = 6
	cfg := helperConfig(seed)

	singleRep, singleRes, err := Run(cfg, workloads, 0)
	if err != nil {
		t.Fatal(err)
	}

	var attemptMu sync.Mutex
	attempts := 0
	runArgv := helperArgv("run", seed, workloads)
	stallArgv := helperArgv("stall", seed, workloads)
	start := CommandStart(func(spec ShardSpec) []string {
		attemptMu.Lock()
		defer attemptMu.Unlock()
		if spec.Index == 0 {
			attempts++
			if attempts == 1 {
				return stallArgv(spec)
			}
		}
		return runArgv(spec)
	}, os.Stderr)

	var logs []string
	var logMu sync.Mutex
	rep, res, err := Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: 2, Dir: t.TempDir(),
		Start: start,
		// Generous enough that subprocess startup (slow under -race) never
		// reads as a stall, short enough that the wedged helper — which
		// sleeps for a minute — is reliably killed.
		StallTimeout: 3 * time.Second,
		RetryBackoff: time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(logs, "\n"), "no stream progress") {
		t.Errorf("stall kill never logged:\n%s", strings.Join(logs, "\n"))
	}
	if !bytes.Equal(reportJSON(t, singleRep, singleRes), reportJSON(t, rep, res)) {
		t.Error("report after stall-kill-retry differs from single-process run")
	}
}

// TestOrchestrateRejectsBadConfig covers argument validation. Every case
// but the nil-Start one carries a Start function that fails the test if
// called, so each is rejected for its own fault before any dispatch.
func TestOrchestrateRejectsBadConfig(t *testing.T) {
	cfg := GeneratorConfig{Seed: 1}
	start := func(ShardSpec) (ShardProcess, error) {
		t.Error("a shard was dispatched for a rejected config")
		return inProcessShard(func() error { return nil }), nil
	}
	for _, tc := range []struct {
		name, wantErr string
		cfg           OrchestratorConfig
	}{
		{"zero workloads", "must be positive", OrchestratorConfig{Config: cfg, Workloads: 0, Shards: 1, Dir: t.TempDir(), Start: start}},
		{"zero shards", "at least 1", OrchestratorConfig{Config: cfg, Workloads: 4, Shards: 0, Dir: t.TempDir(), Start: start}},
		{"missing stream directory", "stream directory", OrchestratorConfig{Config: cfg, Workloads: 4, Shards: 1, Start: start}},
		{"invalid generator config", "unknown platform", OrchestratorConfig{Config: GeneratorConfig{Platforms: []string{"nope"}}, Workloads: 4, Shards: 1, Dir: t.TempDir(), Start: start}},
		{"nil Start", "Start function", OrchestratorConfig{Config: cfg, Workloads: 4, Shards: 1, Dir: t.TempDir()}},
	} {
		if _, _, err := Orchestrate(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want it to mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// slowShardProcess appends one pre-computed record to its stream at a
// fixed cadence, pinning the file's mtime into the past after every
// append — a shard making steady progress on a filesystem with coarse
// mtime granularity, where consecutive appends leave the mtime unchanged.
type slowShardProcess struct {
	done   chan error
	mu     sync.Mutex
	killed bool
}

func (p *slowShardProcess) Wait() error { return <-p.done }
func (p *slowShardProcess) Kill() error {
	p.mu.Lock()
	p.killed = true
	p.mu.Unlock()
	return nil
}
func (p *slowShardProcess) wasKilled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// TestOrchestrateStallDetectionSurvivesCoarseMtime is the regression test
// for the false-stall kill: stall detection keyed on mtime alone declared
// a steadily progressing shard dead whenever the filesystem's mtime
// granularity was coarser than the stall timeout (every append landed on
// the "same" mtime). Detection must key on file growth; a shard whose
// stream gains bytes is alive no matter what its mtime says.
func TestOrchestrateStallDetectionSurvivesCoarseMtime(t *testing.T) {
	const seed = 41
	const workloads = 4
	cfg := helperConfig(seed)

	singleRep, singleRes, err := Run(cfg, workloads, 0)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := gen.RunCount(workloads)
	scens := gen.GenerateRange(0, runs)
	results := make([]Result, runs)
	for i, s := range scens {
		results[i] = RunOne(s)
	}

	// Worst-case coarse mtime: the file's timestamp never moves at all.
	past := time.Now().Add(-time.Hour)
	var proc *slowShardProcess
	start := func(spec ShardSpec) (ShardProcess, error) {
		proc = &slowShardProcess{done: make(chan error, 1)}
		go func() {
			proc.done <- func() error {
				f, err := os.Create(spec.Path)
				if err != nil {
					return err
				}
				defer f.Close()
				lo, hi := ShardRange(runs, spec.Index, spec.Count)
				sw, err := NewStreamWriter(f, StreamHeader{Config: cfg, Total: runs, Lo: lo, Hi: hi})
				if err != nil {
					return err
				}
				os.Chtimes(spec.Path, past, past)
				for _, r := range results[lo:hi] {
					// Each record arrives well within the stall timeout, but
					// the whole stream takes longer than it — only byte
					// growth proves liveness.
					time.Sleep(120 * time.Millisecond)
					if err := sw.Append(r); err != nil {
						return err
					}
					os.Chtimes(spec.Path, past, past)
				}
				return nil
			}()
		}()
		return proc, nil
	}

	rep, res, err := Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: 1, Dir: t.TempDir(),
		Start: start,
		// Shorter than the whole stream, longer than the per-record
		// cadence; the file is polled every tenth of it (30ms).
		StallTimeout: 300 * time.Millisecond,
		MaxAttempts:  1, // a false kill must fail the test, not retry past it
	})
	if err != nil {
		t.Fatalf("orchestrate killed a progressing shard: %v", err)
	}
	if proc.wasKilled() {
		t.Fatal("stall detection killed a shard whose stream was growing")
	}
	if !bytes.Equal(reportJSON(t, singleRep, singleRes), reportJSON(t, rep, res)) {
		t.Error("report differs from single-process run")
	}
}
