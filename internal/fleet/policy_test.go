package fleet

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

var sweep3 = []string{"heuristic", "maxaccuracy", "minenergy"}

// TestSweepPairsWorkloads: with P policies, consecutive run indices must
// carry the *same* workload (seed, class, platform, script) under
// different policies — that identity is what makes per-policy aggregates
// a controlled comparison.
func TestSweepPairsWorkloads(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 21, Policies: sweep3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewGenerator(GeneratorConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const workloads = 5
	runs := gen.Generate(gen.RunCount(workloads))
	if len(runs) != workloads*len(sweep3) {
		t.Fatalf("generated %d runs, want %d", len(runs), workloads*len(sweep3))
	}
	plain := base.Generate(workloads)
	for i, s := range runs {
		wl, pol := i/len(sweep3), sweep3[i%len(sweep3)]
		if s.Policy != pol || s.Script.Policy != pol {
			t.Errorf("run %d policy = %q/%q, want %q", i, s.Policy, s.Script.Policy, pol)
		}
		// Strip the policy and compare against the single-policy
		// generation of the same workload index: everything else must be
		// bit-identical.
		stripped := s
		stripped.ID = wl
		stripped.Policy = ""
		stripped.Script.Policy = ""
		if fingerprint(stripped) != fingerprint(plain[wl]) {
			t.Errorf("run %d (workload %d, %s) workload differs from single-policy generation:\n%s\n%s",
				i, wl, pol, fingerprint(stripped), fingerprint(plain[wl]))
		}
	}
}

// TestSweepReportDeterministicAcrossWorkers: the acceptance contract for
// `fleetsim -policies ...` — one report, per-policy rows, identical at
// any parallelism, with every policy aggregating the same frame count.
func TestSweepReportDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 scenarios")
	}
	cfg := GeneratorConfig{Seed: 9, Policies: sweep3, Platforms: []string{"odroid-xu3"}}
	const workloads = 6

	rep1, res1, err := Run(cfg, workloads, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep8, _, err := Run(cfg, workloads, 8)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(rep1)
	j8, _ := json.Marshal(rep8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("sweep report differs between workers=1 and workers=8:\n%s\n%s", j1, j8)
	}

	if len(rep1.ByPolicy) != len(sweep3) {
		t.Fatalf("ByPolicy has %d entries, want %d: %v", len(rep1.ByPolicy), len(sweep3), rep1.ByPolicy)
	}
	frames := -1
	for _, name := range sweep3 {
		g, ok := rep1.ByPolicy[name]
		if !ok {
			t.Fatalf("ByPolicy missing %q", name)
		}
		if g.Scenarios != workloads {
			t.Errorf("policy %s aggregated %d scenarios, want %d", name, g.Scenarios, workloads)
		}
		if frames == -1 {
			frames = g.Frames
		} else if g.Frames != frames {
			t.Errorf("policy %s saw %d frames, others saw %d — workloads diverged", name, g.Frames, frames)
		}
	}
	for _, r := range res1 {
		if r.Err != "" {
			t.Errorf("scenario %d (%s/%s): %s", r.ID, r.Name, r.Policy, r.Err)
		}
	}
}

// TestSinglePolicyReportOmitsByPolicy: a single-policy fleet must not grow
// a ByPolicy section — that is what keeps the heuristic report
// byte-identical to the pre-policy golden file.
func TestSinglePolicyReportOmitsByPolicy(t *testing.T) {
	rep, results, err := Run(GeneratorConfig{Seed: 4, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByPolicy != nil {
		t.Fatalf("single-policy report grew ByPolicy: %v", rep.ByPolicy)
	}
	j, _ := json.Marshal(rep)
	if bytes.Contains(j, []byte("byPolicy")) {
		t.Fatalf("byPolicy key present in single-policy JSON: %s", j)
	}
	for _, r := range results {
		if r.Policy != "heuristic" {
			t.Errorf("scenario %d policy = %q, want heuristic", r.ID, r.Policy)
		}
	}
}

// TestGeneratorPolicyValidation: unknown and duplicate policies must fail
// before any simulation.
func TestGeneratorPolicyValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{Policies: []string{"warp-speed"}}); err == nil {
		t.Error("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "warp-speed") {
		t.Errorf("error %q does not name the bad policy", err)
	}
	if _, err := NewGenerator(GeneratorConfig{Policies: []string{"heuristic", "heuristic"}}); err == nil {
		t.Error("duplicate policy accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Policies: []string{"minenergy", "", "heuristic"}}); err == nil {
		t.Error(`"" alongside its resolved name "heuristic" accepted`)
	}
	gen, err := NewGenerator(GeneratorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := gen.Policies(); len(got) != 1 || got[0] != "heuristic" {
		t.Errorf("default policies = %v, want [heuristic]", got)
	}
	if gen.RunCount(7) != 7 {
		t.Errorf("single-policy RunCount(7) = %d", gen.RunCount(7))
	}
}

// TestShardSweepValidation: shard files from a policy sweep must prove
// their policy assignment on read/merge — a result claiming the wrong
// policy for its index, or a config naming an unknown policy, is
// rejected at the file boundary.
func TestShardSweepValidation(t *testing.T) {
	cfg := GeneratorConfig{Seed: 3, Policies: []string{"heuristic", "minenergy"}}
	shard := fakeSweepShard(cfg, 8, 0, 4)
	if err := shard.Validate(); err != nil {
		t.Fatalf("valid sweep shard rejected: %v", err)
	}

	tampered := fakeSweepShard(cfg, 8, 0, 4)
	tampered.Results[1].Policy = "heuristic" // index 1 belongs to minenergy
	err := tampered.Validate()
	if err == nil {
		t.Fatal("tampered policy assignment validated")
	}
	if !strings.Contains(err.Error(), "policy") {
		t.Errorf("error %q does not mention the policy", err)
	}
	// The same tampering inside a stream fails on read. The writer
	// refuses a mislabelled record, so the line is edited in place.
	lines := bytes.SplitAfter(writeStream(t, shard, false), []byte("\n"))
	var rec Result
	if err := json.Unmarshal(lines[2], &rec); err != nil {
		t.Fatal(err)
	}
	rec.Policy = "heuristic"
	bad, _ := json.Marshal(rec)
	lines[2] = append(bad, '\n')
	if _, err := ReadShard(bytes.NewReader(bytes.Join(lines, nil))); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Errorf("stream with a mislabelled policy: error = %v, want a policy complaint", err)
	}

	unknown := fakeSweepShard(cfg, 8, 0, 4)
	unknown.Config.Policies = []string{"heuristic", "warp-speed"}
	if err := unknown.Validate(); err == nil {
		t.Error("shard with unknown policy in config validated")
	}

	// Merging shards from different policy lists must fail as a config
	// mismatch.
	other := GeneratorConfig{Seed: 3, Policies: []string{"heuristic", "maxaccuracy"}}
	if _, _, err := Merge(fakeSweepShard(cfg, 8, 0, 4), fakeSweepShard(other, 8, 4, 8)); err == nil {
		t.Error("merge across different policy sweeps accepted")
	}

	// ...but spelling the default policy out must not: a shard run with
	// Policies nil and one with an explicit ["heuristic"] describe the
	// same fleet and merge cleanly.
	implicit := GeneratorConfig{Seed: 3}
	explicit := GeneratorConfig{Seed: 3, Policies: []string{"heuristic"}}
	if _, res, err := Merge(fakeSweepShard(implicit, 8, 0, 4), fakeSweepShard(explicit, 8, 4, 8)); err != nil {
		t.Errorf("implicit/explicit default-policy shards failed to merge: %v", err)
	} else if len(res) != 8 {
		t.Errorf("merged %d results, want 8", len(res))
	}
}

// fakeSweepShard is fakeShard for a multi-policy config: seeds and
// policies follow the real id → (workload, policy) derivation.
func fakeSweepShard(cfg GeneratorConfig, total, lo, hi int) ShardResult {
	pols := cfg.Policies
	if len(pols) == 0 {
		pols = []string{"heuristic"}
	}
	results := make([]Result, 0, hi-lo)
	for id := lo; id < hi; id++ {
		results = append(results, Result{
			ID:       id,
			Seed:     scenarioSeed(cfg.Seed, id/len(pols)),
			Class:    ClassSteady,
			Platform: "odroid-xu3",
			Policy:   pols[id%len(pols)],
		})
	}
	return ShardResult{
		FormatVersion: ShardFormatVersion,
		Config:        cfg,
		Total:         total,
		Lo:            lo,
		Hi:            hi,
		Results:       results,
	}
}

// TestSweepShardEquivalence: sharding a policy sweep and merging must be
// byte-identical to the single-process sweep — including the ByPolicy
// section — with each shard streamed to a file and read back.
func TestSweepShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 scenarios")
	}
	cfg := GeneratorConfig{Seed: 17, Policies: []string{"heuristic", "minenergy"}, Platforms: []string{"odroid-xu3"}}
	const workloads, shards = 4, 3

	singleRep, singleRes, err := Run(cfg, workloads, 2)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	read := make([]ShardResult, 0, shards)
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, StreamFileName(i, shards))
		if _, err := ResumeShard(path, cfg, workloads, i, shards, 2); err != nil {
			t.Fatal(err)
		}
		back, err := ReadShardFile(path)
		if err != nil {
			t.Fatal(err)
		}
		read = append(read, back)
	}
	mergedRep, mergedRes, err := Merge(read...)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, _ := json.Marshal(singleRep)
	gotRep, _ := json.Marshal(mergedRep)
	if !bytes.Equal(wantRep, gotRep) {
		t.Errorf("merged sweep report != single-process report:\n%s\n%s", wantRep, gotRep)
	}
	wantRes, _ := json.Marshal(singleRes)
	gotRes, _ := json.Marshal(mergedRes)
	if !bytes.Equal(wantRes, gotRes) {
		t.Error("merged sweep results != single-process results")
	}
	if len(mergedRep.ByPolicy) != 2 {
		t.Errorf("merged ByPolicy = %v, want 2 policies", mergedRep.ByPolicy)
	}
}
