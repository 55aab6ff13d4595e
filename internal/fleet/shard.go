package fleet

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"github.com/emlrtm/emlrtm/internal/atomicfile"
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
const ShardFormatVersion = 2

// ShardResult is one process's share of a fleet run: the results for a
// contiguous scenario index range [Lo, Hi) of a Total-scenario fleet,
// plus the exact generator config that defines what those indices mean.
// It is the unit of the distributed-fleet layer — each shard is written
// by an independent process and later combined with Merge, which can
// only be trusted because the header carries everything needed to prove
// the shards describe the same fleet.
type ShardResult struct {
	FormatVersion int             `json:"formatVersion"`
	Config        GeneratorConfig `json:"config"`
	Total         int             `json:"total"`
	Lo            int             `json:"lo"`
	Hi            int             `json:"hi"` // exclusive
	Results       []Result        `json:"results"`
}

// Validate checks internal consistency: format version, range bounds,
// one result per owned index in ascending ID order, and — the actual
// determinism guarantee — that every result's recorded seed matches the
// seed GenerateRange would derive for that ID's workload under
// Config.Seed, and that its recorded policy is the one the sweep assigns
// to that ID. A shard generated under a different master seed or policy
// list cannot slip in.
func (s ShardResult) Validate() error {
	if s.FormatVersion != ShardFormatVersion {
		return fmt.Errorf("fleet: shard format version %d, want %d", s.FormatVersion, ShardFormatVersion)
	}
	if s.Total <= 0 {
		return fmt.Errorf("fleet: shard total %d must be positive", s.Total)
	}
	if s.Lo < 0 || s.Hi < s.Lo || s.Hi > s.Total {
		return fmt.Errorf("fleet: shard range [%d,%d) outside fleet [0,%d)", s.Lo, s.Hi, s.Total)
	}
	if len(s.Results) != s.Hi-s.Lo {
		return fmt.Errorf("fleet: shard [%d,%d) carries %d results, want %d", s.Lo, s.Hi, len(s.Results), s.Hi-s.Lo)
	}
	pols, err := resolvePolicies(s.Config.Policies)
	if err != nil {
		return err
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
// merge through either path.
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
	return nil
}

// ShardRange returns the half-open index range [lo, hi) owned by shard
// index (0-based) of count over a total-scenario fleet. Ranges are
// contiguous, cover [0, total) exactly, and differ in size by at most
// one, so any shard count partitions the same fleet.
func ShardRange(total, index, count int) (lo, hi int) {
	return index * total / count, (index + 1) * total / count
}

// RunShard generates and runs shard index (0-based) of count over a fleet
// of total workloads (total × P scenario runs when the config sweeps P
// policies). The returned ShardResult is ready to write with WriteShard
// and merge with Merge; running every shard and merging is byte-identical
// to a single-process Run over the same config and total.
func RunShard(cfg GeneratorConfig, total, index, count, workers int) (ShardResult, error) {
	return (&Runner{Workers: workers}).RunShard(cfg, total, index, count)
}

// RunShard is RunShard with the caller's Runner, so pool size and the
// Progress callback carry over. It is the single place a ShardResult is
// assembled: every writer fills the same header the same way.
func (r *Runner) RunShard(cfg GeneratorConfig, total, index, count int) (ShardResult, error) {
	if total <= 0 {
		return ShardResult{}, fmt.Errorf("fleet: scenario count %d must be positive", total)
	}
	if count < 1 || index < 0 || index >= count {
		return ShardResult{}, fmt.Errorf("fleet: shard index %d of %d out of range", index, count)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		return ShardResult{}, err
	}
	runs := gen.RunCount(total)
	lo, hi := ShardRange(runs, index, count)
	return ShardResult{
		FormatVersion: ShardFormatVersion,
		Config:        cfg,
		Total:         runs,
		Lo:            lo,
		Hi:            hi,
		Results:       r.Run(gen.GenerateRange(lo, hi)),
	}, nil
}

// WriteShard validates the shard and writes it as indented JSON. Result
// float fields (including the raw Latencies samples that Aggregate pools
// for percentiles) are encoded with Go's shortest-round-trip formatting,
// so a written-then-read shard is bit-identical to the in-memory one.
func WriteShard(w io.Writer, s ShardResult) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// sniffGzip wraps br in a gzip reader when the input starts with the gzip
// magic number, so shard and stream readers accept either form without
// being told how the file was written. The returned closer is non-nil only
// for compressed input.
func sniffGzip(br *bufio.Reader) (io.Reader, io.Closer, error) {
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: decompressing shard: %w", err)
		}
		return zr, zr, nil
	}
	return br, nil, nil
}

// ReadShard decodes and validates one shard file, transparently
// decompressing gzip input (sniffed by magic number, so readers need not
// know how a shard was written) and accepting both encodings: the classic
// one-document JSON shard and the NDJSON result stream a crash-resumable
// shard process appends (sniffed by the stream header's leading bytes). A
// stream is accepted only when complete — every scenario in its range
// present — so a partial stream can never slip into a merge. Validation on
// read means a merge fails at the offending file with a
// seed/range/version message, not downstream with a silently wrong report.
func ReadShard(r io.Reader) (ShardResult, error) {
	br := bufio.NewReader(r)
	src, closer, err := sniffGzip(br)
	if err != nil {
		return ShardResult{}, err
	}
	if closer != nil {
		defer closer.Close()
	}
	bsrc := bufio.NewReader(src)
	if p, err := bsrc.Peek(len(streamPrefix)); err == nil && string(p) == streamPrefix {
		return readStreamShard(bsrc)
	}
	var s ShardResult
	if err := json.NewDecoder(bsrc).Decode(&s); err != nil {
		return ShardResult{}, fmt.Errorf("fleet: decoding shard: %w", err)
	}
	if err := s.Validate(); err != nil {
		return ShardResult{}, err
	}
	return s, nil
}

// WriteShardFile writes a shard to path, gzip-compressed when the path
// ends in ".gz" (raw Latencies samples dominate shard bytes and compress
// several-fold). ReadShardFile — or any ReadShard — accepts either form.
// The write is atomic (temp file + rename): a process killed mid-write
// leaves the previous file or nothing, never a truncated shard that would
// poison a later merge or resume.
func WriteShardFile(path string, s ShardResult) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".gz") {
			zw := gzip.NewWriter(w)
			if err := WriteShard(zw, s); err != nil {
				zw.Close()
				return err
			}
			return zw.Close()
		}
		return WriteShard(w, s)
	})
}

// ReadShardFile reads and validates one shard file from disk — plain or
// gzipped, classic JSON or a complete NDJSON stream. Errors name the file:
// a corrupt shard in a hundred-file merge must point at itself.
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
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })

	first := ordered[0]
	for _, s := range ordered {
		if err := s.Validate(); err != nil {
			return Report{}, nil, err
		}
		if s.Config.Seed != first.Config.Seed {
			return Report{}, nil, fmt.Errorf("fleet: shard seed mismatch: shard [%d,%d) has seed %d, shard [%d,%d) has seed %d",
				first.Lo, first.Hi, first.Config.Seed, s.Lo, s.Hi, s.Config.Seed)
		}
		if !reflect.DeepEqual(s.Config.normalized(), first.Config.normalized()) {
			return Report{}, nil, fmt.Errorf("fleet: shard config mismatch: shard [%d,%d) was generated with %+v, shard [%d,%d) with %+v",
				first.Lo, first.Hi, first.Config, s.Lo, s.Hi, s.Config)
		}
		if s.Total != first.Total {
			return Report{}, nil, fmt.Errorf("fleet: shard fleet-size mismatch: %d vs %d scenarios", first.Total, s.Total)
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
