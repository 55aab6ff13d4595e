package fleet

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateRangeMatchesGenerate: a shard's slice of the index range
// must equal the same slice of a full generation — the property that
// makes contiguous shards independently reproducible.
func TestGenerateRangeMatchesGenerate(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	full := gen.Generate(20)
	for _, r := range [][2]int{{0, 20}, {0, 7}, {7, 13}, {13, 20}, {19, 20}, {5, 5}} {
		lo, hi := r[0], r[1]
		part := gen.GenerateRange(lo, hi)
		if len(part) != hi-lo {
			t.Fatalf("GenerateRange(%d,%d) yielded %d scenarios", lo, hi, len(part))
		}
		for i, s := range part {
			if fingerprint(s) != fingerprint(full[lo+i]) {
				t.Errorf("GenerateRange(%d,%d)[%d] != Generate(20)[%d]", lo, hi, i, lo+i)
			}
		}
	}
	if got := gen.GenerateRange(-3, -1); len(got) != 0 {
		t.Errorf("GenerateRange(-3,-1) yielded %d scenarios, want 0", len(got))
	}
}

// TestShardRangePartitions: for any (total, count), the shard ranges must
// cover [0, total) contiguously with sizes differing by at most one.
func TestShardRangePartitions(t *testing.T) {
	for _, total := range []int{1, 2, 5, 7, 16, 64, 100} {
		for count := 1; count <= 6; count++ {
			next, minSz, maxSz := 0, total, 0
			for i := 0; i < count; i++ {
				lo, hi := ShardRange(total, i, count)
				if lo != next {
					t.Fatalf("ShardRange(%d,%d,%d) = [%d,%d), want lo %d", total, i, count, lo, hi, next)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				next = hi
			}
			if next != total {
				t.Fatalf("shards of %d/%d cover [0,%d), want [0,%d)", total, count, next, total)
			}
			if count <= total && maxSz-minSz > 1 {
				t.Errorf("shards of %d/%d unbalanced: sizes span [%d,%d]", total, count, minSz, maxSz)
			}
		}
	}
}

// TestShardEquivalenceProperty is the distributed layer's core contract:
// across randomized seeds, fleet sizes, shard splits (1-5 shards with
// uneven boundaries) and worker counts, running shards in separate
// runners, round-tripping each through the shard stream encoding, and
// merging must reproduce the single-process report and results
// byte-for-byte (compared via JSON, so every exported field — including
// the pooled Latencies — participates).
func TestShardEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~60 scenarios")
	}
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 3; trial++ {
		cfg := GeneratorConfig{Seed: rng.Uint64()}
		n := 6 + rng.Intn(9) // 6..14 scenarios

		singleRep, singleRes, err := Run(cfg, n, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}

		// Random uneven split into 1-5 contiguous shards.
		count := 1 + rng.Intn(5)
		if count > n {
			count = n
		}
		cuts := map[int]bool{0: true, n: true}
		for len(cuts) < count+1 {
			cuts[1+rng.Intn(n-1)] = true
		}
		bounds := make([]int, 0, len(cuts))
		for c := range cuts {
			bounds = append(bounds, c)
		}
		sortInts(bounds)

		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shards []ShardResult
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			runner := &Runner{Workers: 1 + rng.Intn(4)}
			s := ShardResult{
				StreamHeader: StreamHeader{FormatVersion: ShardFormatVersion, Config: cfg, Total: n, Lo: lo, Hi: hi},
				Results:      runner.Run(gen.GenerateRange(lo, hi)),
			}
			// Round-trip through the stream encoding: merged results must be
			// built from what a reader decodes, not from in-memory state.
			back, err := ReadShard(bytes.NewReader(writeStream(t, s)))
			if err != nil {
				t.Fatalf("trial %d: ReadShard [%d,%d): %v", trial, lo, hi, err)
			}
			shards = append(shards, back)
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		mergedRep, mergedRes, err := Merge(shards...)
		if err != nil {
			t.Fatalf("trial %d (seed %d, n %d, %d shards): %v", trial, cfg.Seed, n, len(shards), err)
		}
		wantRep, _ := json.Marshal(singleRep)
		gotRep, _ := json.Marshal(mergedRep)
		if !bytes.Equal(wantRep, gotRep) {
			t.Errorf("trial %d (seed %d, n %d, bounds %v): merged report != single-process report\nsingle: %s\nmerged: %s",
				trial, cfg.Seed, n, bounds, wantRep, gotRep)
		}
		wantRes, _ := json.Marshal(singleRes)
		gotRes, _ := json.Marshal(mergedRes)
		if !bytes.Equal(wantRes, gotRes) {
			t.Errorf("trial %d (seed %d, n %d, bounds %v): merged results != single-process results",
				trial, cfg.Seed, n, bounds)
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// fakeShard fabricates a structurally valid shard without running any
// simulations: IDs and seeds follow the real derivation, so only the
// aspect a test deliberately corrupts is wrong.
func fakeShard(cfg GeneratorConfig, total, lo, hi int) ShardResult {
	results := make([]Result, 0, hi-lo)
	for id := lo; id < hi; id++ {
		results = append(results, Result{
			ID:       id,
			Seed:     scenarioSeed(cfg.Seed, id),
			Class:    ClassSteady,
			Platform: "odroid-xu3",
			Policy:   "heuristic",
		})
	}
	return ShardResult{
		StreamHeader: StreamHeader{FormatVersion: ShardFormatVersion, Config: cfg, Total: total, Lo: lo, Hi: hi},
		Results:      results,
	}
}

// TestMergeRejections: every way shards can fail to describe one fleet
// must produce a clear error naming the problem.
func TestMergeRejections(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	otherSeed := GeneratorConfig{Seed: 6}
	otherCfg := GeneratorConfig{Seed: 5, Platforms: []string{"odroid-xu3"}}

	tamperedSeed := fakeShard(cfg, 8, 4, 8)
	tamperedSeed.Results[0].Seed++

	cases := []struct {
		name    string
		shards  []ShardResult
		wantErr string
	}{
		{"no shards", nil, "no shards"},
		{"gap at start", []ShardResult{fakeShard(cfg, 8, 2, 8)}, "gap"},
		{"gap in middle", []ShardResult{fakeShard(cfg, 8, 0, 3), fakeShard(cfg, 8, 5, 8)}, "gap"},
		{"gap at end", []ShardResult{fakeShard(cfg, 8, 0, 6)}, "gap"},
		{"overlap", []ShardResult{fakeShard(cfg, 8, 0, 5), fakeShard(cfg, 8, 3, 8)}, "overlap"},
		{"duplicate shard", []ShardResult{fakeShard(cfg, 8, 0, 8), fakeShard(cfg, 8, 0, 8)}, "overlap"},
		{"master seed mismatch", []ShardResult{fakeShard(cfg, 8, 0, 4), fakeShard(otherSeed, 8, 4, 8)}, "seed mismatch"},
		{"config mismatch", []ShardResult{fakeShard(cfg, 8, 0, 4), fakeShard(otherCfg, 8, 4, 8)}, "config mismatch"},
		{"total mismatch", []ShardResult{fakeShard(cfg, 8, 0, 4), fakeShard(cfg, 12, 4, 12)}, "fleet-size mismatch"},
		{"tampered result seed", []ShardResult{fakeShard(cfg, 8, 0, 4), tamperedSeed}, "does not derive"},
	}
	for _, tc := range cases {
		_, _, err := Merge(tc.shards...)
		if err == nil {
			t.Errorf("%s: merge accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// The valid counterpart of the cases above must merge.
	if _, res, err := Merge(fakeShard(cfg, 8, 4, 8), fakeShard(cfg, 8, 0, 4)); err != nil {
		t.Errorf("valid out-of-order shards rejected: %v", err)
	} else if len(res) != 8 || res[0].ID != 0 || res[7].ID != 7 {
		t.Errorf("merged results not restored to scenario order: %d results", len(res))
	}
}

// TestShardValidate covers the consistency checks Merge runs before
// trusting a shard. The stream reader's counterparts are in
// TestStreamReaderFailLoud.
func TestShardValidate(t *testing.T) {
	cfg := GeneratorConfig{Seed: 9}

	badVersion := fakeShard(cfg, 4, 0, 4)
	badVersion.FormatVersion = ShardFormatVersion + 1

	badRange := fakeShard(cfg, 4, 0, 4)
	badRange.Hi = 5

	badCount := fakeShard(cfg, 4, 0, 4)
	badCount.Results = badCount.Results[:3]

	badOrder := fakeShard(cfg, 4, 0, 4)
	badOrder.Results[1], badOrder.Results[2] = badOrder.Results[2], badOrder.Results[1]

	cases := []struct {
		name    string
		shard   ShardResult
		wantErr string
	}{
		{"future format version", badVersion, "format version"},
		{"range outside fleet", badRange, "outside fleet"},
		{"missing results", badCount, "carries 3 results"},
		{"out-of-order results", badOrder, "scenario order"},
	}
	for _, tc := range cases {
		err := tc.shard.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	if err := fakeShard(cfg, 4, 0, 4).Validate(); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
	if _, err := ReadShard(strings.NewReader("{not json")); err == nil {
		t.Error("ReadShard accepted malformed JSON")
	}
}

// classicShardDoc encodes s as one indented JSON document, an encoding
// ReadShard must refuse: streams are the only shard files.
func classicShardDoc(t testing.TB, s ShardResult) []byte {
	t.Helper()
	doc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(doc, '\n')
}

// TestReadShardFileCorrupt: damaged or foreign shard files must fail
// loudly with the file path in the error, never decode to a partial or
// empty shard.
func TestReadShardFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	shard := fakeShard(GeneratorConfig{Seed: 5}, 8, 0, 4)
	stream := writeStream(t, shard)
	header, _, _ := bytes.Cut(stream, []byte("\n"))

	var garbled bytes.Buffer // a valid header over a garbage body
	garbled.Write(header)
	garbled.WriteString("\nthis is not a result record\n")

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"classic.json", classicShardDoc(t, shard), "not a shard result stream"},
		{"torn-header.ndjson", header[:len(header)/2], "stream header"},
		{"garbled.ndjson", garbled.Bytes(), "record"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadShardFile(path)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.Contains(err.Error(), path):
			t.Errorf("%s: error %q does not name the file", tc.name, err)
		case !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// A missing file: the error must carry the path too.
	missing := filepath.Join(dir, "no-such-shard.ndjson")
	if _, err := ReadShardFile(missing); err == nil {
		t.Error("missing shard file accepted")
	} else if !strings.Contains(err.Error(), missing) {
		t.Errorf("missing-file error %q does not name the file", err)
	}
}

// TestResumeShardBounds covers ResumeShard argument validation: a bad
// request fails before the stream path is created.
func TestResumeShardBounds(t *testing.T) {
	cfg := GeneratorConfig{Seed: 1}
	for _, tc := range []struct {
		name                string
		cfg                 GeneratorConfig
		total, index, count int
	}{
		{"zero total", cfg, 0, 0, 1},
		{"index >= count", cfg, 4, 2, 2},
		{"negative index", cfg, 4, -1, 2},
		{"zero count", cfg, 4, 0, 0},
		{"invalid generator config", GeneratorConfig{Platforms: []string{"nope"}}, 4, 0, 2},
	} {
		path := filepath.Join(t.TempDir(), "shard.ndjson")
		if _, err := (&Runner{Workers: 1}).ResumeShard(path, tc.cfg, tc.total, tc.index, tc.count); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: stream path created (stat error %v)", tc.name, err)
		}
	}
}

// runShardRef is the reference a resumed shard must equal: the same range
// of a single-process Run, with the header ResumeShard fills in.
func runShardRef(t testing.TB, cfg GeneratorConfig, total, index, count int) ShardResult {
	t.Helper()
	_, res, err := Run(cfg, total, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ShardRange(len(res), index, count)
	return ShardResult{
		StreamHeader: StreamHeader{FormatVersion: ShardFormatVersion, Config: cfg, Total: len(res), Lo: lo, Hi: hi},
		Results:      res[lo:hi],
	}
}
