package fleet

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// ShardSpec describes one shard assignment handed to a Start function: its
// 0-based index of Count and the stream file it must write (and may
// resume). ShardRange gives the run-index range the shard owns.
type ShardSpec struct {
	Index, Count int
	Path         string // NDJSON stream file the shard appends to
}

// ShardProcess is the orchestrator's handle on a dispatched shard: Wait
// blocks until it exits, Kill terminates it (the straggler path). An
// exec'd subprocess satisfies this via CommandStart; tests satisfy it
// in-process.
type ShardProcess interface {
	Wait() error
	Kill() error
}

// OrchestratorConfig parametrises Orchestrate.
type OrchestratorConfig struct {
	// Config and Workloads define the fleet, exactly as in Run.
	Config    GeneratorConfig
	Workloads int
	// Shards is how many shard processes partition the fleet.
	Shards int
	// Dir receives one stream file per shard (StreamFileName). Existing
	// complete or partial streams in Dir are reused/resumed, never
	// recomputed — re-running an interrupted orchestration picks up where
	// it died.
	Dir string
	// Start launches one shard; it must (eventually) complete spec.Path as
	// a shard result stream, resuming any existing content. It is
	// required: CommandStart builds one that execs a subprocess per shard,
	// whose argv carries the worker count and latency mode.
	Start func(ShardSpec) (ShardProcess, error)
	// StallTimeout declares a dispatched shard dead when its stream file
	// gains no bytes for this long (every completed scenario flushes, so
	// file growth is a progress signal; mtime is only a fallback). The
	// straggler is killed and the attempt counts as failed; the retry
	// resumes from its last flushed scenario. Zero disables detection.
	// The stream file is sampled every 200ms, or every tenth of
	// StallTimeout when that is shorter.
	StallTimeout time.Duration
	// MaxAttempts bounds tries per shard (first run + retries); default 3.
	MaxAttempts int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt; default 250ms.
	RetryBackoff time.Duration
	// Logf, when set, receives orchestration progress: dispatches,
	// completions, stalls, retries, merges.
	Logf func(format string, args ...any)
}

// StreamFileName is the stream file the orchestrator assigns to shard
// index (0-based) of count inside its Dir. Exported so a shard started —
// or crashed — outside the orchestrator can drop its stream where a later
// Orchestrate call will find and resume it.
func StreamFileName(index, count int) string {
	return fmt.Sprintf("shard-%03d-of-%03d.ndjson", index+1, count)
}

// Orchestrate runs a whole fleet as supervised shards: it dispatches one
// process per shard (each streaming results to its file in Dir), monitors
// stream progress, kills and retries stalled or dead shards with bounded
// backoff — each retry resuming from the shard's last flushed scenario —
// and merges shards as they complete. Because every shard stream is
// validated against the run's seed/config/range and each scenario is a
// pure function of its spec, the merged report is byte-identical to a
// single-process Run of the same fleet no matter how many crashes,
// retries, or out-of-order completions happened along the way.
func Orchestrate(cfg OrchestratorConfig) (Report, []Result, error) {
	if cfg.Workloads <= 0 {
		return Report{}, nil, fmt.Errorf("fleet: scenario count %d must be positive", cfg.Workloads)
	}
	if cfg.Shards < 1 {
		return Report{}, nil, fmt.Errorf("fleet: shard count %d must be at least 1", cfg.Shards)
	}
	if cfg.Start == nil {
		return Report{}, nil, fmt.Errorf("fleet: orchestrator needs a Start function")
	}
	if _, err := NewGenerator(cfg.Config); err != nil {
		return Report{}, nil, err
	}
	if cfg.Dir == "" {
		return Report{}, nil, fmt.Errorf("fleet: orchestrator needs a stream directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return Report{}, nil, err
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	type outcome struct {
		index    int
		shard    ShardResult
		attempts int
		err      error
	}
	ch := make(chan outcome)
	for i := 0; i < cfg.Shards; i++ {
		spec := ShardSpec{
			Index: i, Count: cfg.Shards,
			Path: filepath.Join(cfg.Dir, StreamFileName(i, cfg.Shards)),
		}
		go func(spec ShardSpec) {
			s, attempts, err := superviseShard(cfg, spec, logf)
			ch <- outcome{index: spec.Index, shard: s, attempts: attempts, err: err}
		}(spec)
	}

	// Collect shards as they complete — the incremental merge. Order of
	// completion does not matter: Merge restores scenario order, a late
	// straggler only delays, never changes, the report, and a failed run
	// reports its lowest-index failed shard.
	shards := make([]ShardResult, 0, cfg.Shards)
	errs := make([]error, cfg.Shards)
	for done := 0; done < cfg.Shards; done++ {
		o := <-ch
		if o.err != nil {
			logf("fleet: shard %d/%d FAILED: %v", o.index+1, cfg.Shards, o.err)
			errs[o.index] = o.err
			continue
		}
		shards = append(shards, o.shard)
		logf("fleet: shard %d/%d complete after %d attempt(s); merged %d/%d shards (%d results)",
			o.index+1, cfg.Shards, o.attempts, len(shards), cfg.Shards, len(o.shard.Results))
	}
	for _, err := range errs {
		if err != nil {
			return Report{}, nil, err
		}
	}
	return Merge(shards...)
}

// superviseShard drives one shard to completion: attempt, watch, kill on
// stall, retry with exponential backoff, resume from the stream each time.
func superviseShard(cfg OrchestratorConfig, spec ShardSpec, logf func(string, ...any)) (ShardResult, int, error) {
	backoff := cfg.RetryBackoff
	var lastErr error
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			logf("fleet: shard %d/%d retry %d after %v: %v", spec.Index+1, spec.Count, attempt-1, backoff, lastErr)
			//detlint:allow wallclock retry backoff paces real shard subprocesses, not simulated time
			time.Sleep(backoff)
			backoff *= 2
		}
		s, err := attemptShard(cfg, spec)
		if err == nil {
			return s, attempt, nil
		}
		lastErr = err
	}
	return ShardResult{}, cfg.MaxAttempts, fmt.Errorf("fleet: shard %d/%d failed after %d attempts: %w",
		spec.Index+1, spec.Count, cfg.MaxAttempts, lastErr)
}

// pollInterval is how often stall detection samples a shard's stream
// file: 200ms, or a tenth of a positive stall timeout when that is
// shorter (floored at 1ms, as a ticker needs a positive period).
func pollInterval(stall time.Duration) time.Duration {
	poll := 200 * time.Millisecond
	if stall > 0 && stall/10 < poll {
		poll = max(stall/10, time.Millisecond)
	}
	return poll
}

// attemptShard makes one attempt at a shard — dispatch, then watch — and
// reads the finished stream back as a validated, complete ShardResult.
func attemptShard(cfg OrchestratorConfig, spec ShardSpec) (ShardResult, error) {
	proc, err := cfg.Start(spec)
	if err != nil {
		return ShardResult{}, fmt.Errorf("starting shard: %w", err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- proc.Wait() }()

	// Every appended record flushes, so the stream file's *size* is the
	// shard's heartbeat. Size growth is tracked against our own clock —
	// comparing mtimes between polls would miss progress on filesystems
	// with coarse (1s+) mtime granularity, where two appends within the
	// same second leave the mtime unchanged and a fast shard looks dead.
	// The mtime is kept only as a fallback for a writer that rewrites
	// bytes in place without growing the file. Before the file exists the
	// attempt start is the baseline.
	last := time.Now() //detlint:allow wallclock stall detection watches a real OS process's stream file
	lastSize := int64(-1)
	ticker := time.NewTicker(pollInterval(cfg.StallTimeout)) //detlint:allow wallclock polling cadence for a real subprocess heartbeat
	defer ticker.Stop()
	stalled := false
	for {
		select {
		case werr := <-waitCh:
			if stalled {
				return ShardResult{}, fmt.Errorf("killed: no stream progress on %s for %v", spec.Path, cfg.StallTimeout)
			}
			if werr != nil {
				return ShardResult{}, fmt.Errorf("shard process: %w", werr)
			}
			// Exited cleanly: the stream must now be complete; reading it
			// back revalidates every record.
			return ReadShardFile(spec.Path)
		case <-ticker.C:
			if cfg.StallTimeout <= 0 || stalled {
				continue
			}
			if fi, err := os.Stat(spec.Path); err == nil {
				if fi.Size() != lastSize {
					lastSize = fi.Size()
					last = time.Now() //detlint:allow wallclock heartbeat timestamps are host time by nature
				} else if fi.ModTime().After(last) {
					last = fi.ModTime()
				}
			}
			//detlint:allow wallclock stall timeout measures real elapsed time of a real process
			if time.Since(last) > cfg.StallTimeout {
				stalled = true
				proc.Kill() // Wait will return; the select above reports the stall
			}
		}
	}
}

// CommandStart adapts an argv builder into an Orchestrate Start function
// that exec's each shard as a subprocess (stdout/stderr to errw, which may
// be nil to discard). The command must write — resuming if partial — the
// stream at spec.Path; fleetsim orchestrate builds
// "fleetsim -shard i/m -resume -out <spec.Path> …" argvs this way.
func CommandStart(argv func(ShardSpec) []string, errw io.Writer) func(ShardSpec) (ShardProcess, error) {
	return func(spec ShardSpec) (ShardProcess, error) {
		a := argv(spec)
		if len(a) == 0 {
			return nil, fmt.Errorf("fleet: empty shard command")
		}
		cmd := exec.Command(a[0], a[1:]...)
		cmd.Stdout = errw
		cmd.Stderr = errw
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmdProcess{cmd}, nil
	}
}

type cmdProcess struct{ cmd *exec.Cmd }

func (p cmdProcess) Wait() error { return p.cmd.Wait() }
func (p cmdProcess) Kill() error { return p.cmd.Process.Kill() }
