package fleet

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// ShardFormatVersion is the current shard-file format. ReadShard rejects
// files written by an incompatible format instead of merging them
// silently; bump it whenever the meaning of an existing field changes.
//
// Version history:
//
//	1: initial format.
//	2: policy sweeps — Config may carry Policies, every Result records its
//	   Policy, and with P policies run index i means workload i/P under
//	   policy i%P (so v1 files, whose IDs meant workloads directly, cannot
//	   be merged with v2 sweeps).
//	3: a stream record's latencies are [value,count] runs of equal
//	   samples, not one number per sample, and must number exactly the
//	   record's completed jobs.
//	4: latencies are recorded in whole nanoseconds, so v3 files, whose
//	   samples kept the simulator's sub-nanosecond noise, cannot be
//	   merged with v4 ones. Later, a stream came to carry every latency
//	   always: a v4 stream whose records drop them (the retired -nolat
//	   mode, header "noLatencies":true) is refused. The version did not
//	   bump, because every file a writer produces stayed byte-identical.
//	5: workloads are sampled from the repo's SplitMix64 generator
//	   (internal/rng) instead of math/rand's, so a (config, id) pair
//	   names a different workload. A record's seed cannot show the
//	   change, because scenarioSeed did not move, so v4 files cannot be
//	   merged with or resumed into v5 ones.
const ShardFormatVersion = 5

// ShardResult is one process's share of a fleet run: the results for a
// contiguous scenario index range [Lo, Hi) of a Total-scenario fleet,
// plus the exact generator config that defines what those indices mean.
// It is the unit of the distributed-fleet layer — each shard is written
// by an independent process and later combined with Merge, which can
// only be trusted because the header carries everything needed to prove
// the shards describe the same fleet.
type ShardResult struct {
	StreamHeader
	Results []Result `json:"results"`
}

// Validate checks internal consistency: format version, range bounds,
// one result per owned index in ascending ID order, and — the actual
// determinism guarantee — that every result's recorded seed matches the
// seed GenerateRange would derive for that ID's workload under
// Config.Seed, and that its recorded policy is the one the sweep assigns
// to that ID. A shard generated under a different master seed or policy
// list cannot slip in.
func (s ShardResult) Validate() error {
	pols, err := s.check()
	if err != nil {
		return err
	}
	if len(s.Results) != s.Hi-s.Lo {
		return fmt.Errorf("fleet: shard [%d,%d) carries %d results, want %d", s.Lo, s.Hi, len(s.Results), s.Hi-s.Lo)
	}
	for i, r := range s.Results {
		id := s.Lo + i
		if r.ID != id {
			return fmt.Errorf("fleet: shard [%d,%d) result %d has ID %d, want %d (results must be in scenario order)", s.Lo, s.Hi, i, r.ID, id)
		}
		if err := validateResultAt(s.Config.Seed, pols, r, id); err != nil {
			return err
		}
	}
	return nil
}

// validateResultAt checks that one result claims scenario index id of the
// fleet defined by masterSeed and the resolved policy sweep — the same
// derivation GenerateRange performs, recomputed on the consumer side. It
// is shared by shard validation and the stream reader/writer: a result
// generated under a different seed, policy list or index cannot enter a
// merge through either path. Its latencies must be valid runs (see
// checkRuns) holding exactly one sample per completed job.
func validateResultAt(masterSeed uint64, pols []string, r Result, id int) error {
	if r.ID != id {
		return fmt.Errorf("fleet: result has ID %d, want %d", r.ID, id)
	}
	if want := scenarioSeed(masterSeed, id/len(pols)); r.Seed != want {
		return fmt.Errorf("fleet: scenario %d seed %d does not derive from master seed %d (want %d); shard was generated under a different seed", id, r.Seed, masterSeed, want)
	}
	if want := pols[id%len(pols)]; r.Policy != want {
		return fmt.Errorf("fleet: scenario %d ran policy %q, want %q under the configured sweep %v; shard was generated under a different policy list", id, r.Policy, want, pols)
	}
	n, err := checkRuns(r.Latencies, r.Completed)
	if err != nil {
		return fmt.Errorf("fleet: scenario %d: %w", id, err)
	}
	if n != r.Completed {
		return fmt.Errorf("fleet: scenario %d carries %d latency samples for %d completed jobs (want one per job, at most %d)", id, n, r.Completed, maxRecordLatencies)
	}
	return nil
}

// ShardRange returns the half-open index range [lo, hi) owned by shard
// index (0-based) of count over a total-scenario fleet. Ranges are
// contiguous, cover [0, total) exactly, and differ in size by at most
// one, so any shard count partitions the same fleet.
func ShardRange(total, index, count int) (lo, hi int) {
	return index * total / count, (index + 1) * total / count
}

// newShard checks a shard request and returns the fleet's generator and
// the shard's header, Results left empty. It is the single place a
// ShardResult header is assembled.
func newShard(cfg GeneratorConfig, total, index, count int) (*Generator, ShardResult, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, ShardResult{}, fmt.Errorf("fleet: shard index %d of %d out of range", index, count)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, ShardResult{}, err
	}
	runs, err := gen.Runs(total)
	if err != nil {
		return nil, ShardResult{}, err
	}
	if runs > math.MaxInt/count {
		// ShardRange multiplies the run count by up to count.
		return nil, ShardResult{}, fmt.Errorf("fleet: %d runs over %d shards overflow the shard ranges", runs, count)
	}
	lo, hi := ShardRange(runs, index, count)
	return gen, ShardResult{StreamHeader: StreamHeader{FormatVersion: ShardFormatVersion, Config: cfg, Total: runs, Lo: lo, Hi: hi}}, nil
}

// ReadShard decodes and validates one shard: a complete NDJSON result
// stream (see stream.go). A stream is accepted only when complete — every
// scenario in its range present — so a partial stream can never slip into
// a merge. Validation on read means a merge fails at the offending file
// with a seed/range/version message, not downstream with a silently wrong
// report.
func ReadShard(r io.Reader) (ShardResult, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return ShardResult{}, err
	}
	return sr.readAll()
}

// ReadShardFile reads and validates one shard stream file from disk.
// Errors name the file: a corrupt shard in a hundred-file merge must point
// at itself.
func ReadShardFile(path string) (ShardResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ShardResult{}, err
	}
	defer f.Close()
	s, err := ReadShard(f)
	if err != nil {
		return ShardResult{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Merge combines shard results into the fleet report. It requires full
// coverage — every scenario index in [0, Total) owned by exactly one
// shard, all shards generated under an identical config — then restores
// scenario-ID order and reuses Aggregate, so the merged report is
// byte-identical (via JSON) to a single-process run of the same fleet.
// Shard argument order does not matter.
func Merge(shards ...ShardResult) (Report, []Result, error) {
	if len(shards) == 0 {
		return Report{}, nil, fmt.Errorf("fleet: no shards to merge")
	}
	ordered := append([]ShardResult(nil), shards...)
	// An empty shard shares its Lo with the next shard, so Hi breaks the
	// tie: the empty range must come first.
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		return a.Lo < b.Lo || a.Lo == b.Lo && a.Hi < b.Hi
	})

	first := ordered[0]
	for _, s := range ordered {
		if err := s.Validate(); err != nil {
			return Report{}, nil, err
		}
		if err := first.sameFleet(s.StreamHeader); err != nil {
			return Report{}, nil, fmt.Errorf("fleet: shards [%d,%d) and [%d,%d) are from different fleets: %w", first.Lo, first.Hi, s.Lo, s.Hi, err)
		}
	}

	n := 0
	for _, s := range ordered {
		n += len(s.Results)
	}
	results := make([]Result, 0, n)
	next := 0
	for _, s := range ordered {
		switch {
		case s.Lo > next:
			return Report{}, nil, fmt.Errorf("fleet: coverage gap: scenarios [%d,%d) missing from the merged shards", next, s.Lo)
		case s.Lo < next:
			return Report{}, nil, fmt.Errorf("fleet: coverage overlap: scenarios [%d,%d) appear in more than one shard", s.Lo, min(next, s.Hi))
		}
		results = append(results, s.Results...)
		next = s.Hi
	}
	if next != first.Total {
		return Report{}, nil, fmt.Errorf("fleet: coverage gap: scenarios [%d,%d) missing from the merged shards", next, first.Total)
	}
	return Aggregate(first.Config.Seed, results), results, nil
}
