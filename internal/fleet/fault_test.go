package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Faulty scenarios carry at least one seeded window, never take every
// cluster down at once, and keep fail/repair times inside the run.
func TestFaultyClassScenarioShape(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 5, Classes: []Class{ClassFaulty}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.Generate(20) {
		sc := s.Script
		if len(sc.Faults) == 0 {
			t.Fatalf("%s: faulty scenario without fault windows", sc.Name)
		}
		plat := hw.Catalog()[s.Platform]
		clusters := map[string]bool{}
		for _, fw := range sc.Faults {
			if plat.Cluster(fw.Cluster) == nil {
				t.Fatalf("%s: fault names unknown cluster %q", sc.Name, fw.Cluster)
			}
			if clusters[fw.Cluster] {
				t.Fatalf("%s: two windows for cluster %q", sc.Name, fw.Cluster)
			}
			clusters[fw.Cluster] = true
			if fw.FailS <= 0 || fw.FailS >= sc.EndS {
				t.Fatalf("%s: fail time %.2f outside (0, %.2f)", sc.Name, fw.FailS, sc.EndS)
			}
			if fw.RepairS != 0 && (fw.RepairS <= fw.FailS || fw.RepairS >= sc.EndS) {
				t.Fatalf("%s: repair time %.2f outside (%.2f, %.2f)", sc.Name, fw.RepairS, fw.FailS, sc.EndS)
			}
		}
		if len(clusters) >= len(plat.Clusters) {
			t.Fatalf("%s: fault windows cover all %d clusters", sc.Name, len(plat.Clusters))
		}
	}
}

// The acceptance property of the whole degradation stack: however the
// windows land, no scenario ends with an app stuck on dead silicon while
// any cluster is still online.
func TestNoFaultyScenarioEndsUnhosted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 scenarios")
	}
	gen, err := NewGenerator(GeneratorConfig{Seed: 9, Classes: []Class{ClassFaulty}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.Generate(24) {
		plat := hw.Catalog()[s.Platform]
		eng, _, rep, err := workload.RunEngineOpts(nil, s.Script, plat, TickS, nil, workload.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		anyOnline := false
		for _, cl := range plat.Clusters {
			ci, err := eng.Cluster(cl.Name)
			if err != nil {
				t.Fatal(err)
			}
			if ci.Online {
				anyOnline = true
			}
		}
		if !anyOnline {
			t.Fatalf("%s: generator produced a run ending with all clusters offline", s.Script.Name)
		}
		if n := eng.UnhostedApps(); n != 0 {
			t.Errorf("%s: %d apps unhosted at end of run (unhostedS=%.2f)", s.Script.Name, n, rep.UnhostedS)
		}
		if rep.ClusterFails == 0 {
			t.Errorf("%s: no fault was injected", s.Script.Name)
		}
	}
}

// Determinism across worker counts holds for fault-injected fleets.
func TestFaultyRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 scenarios twice")
	}
	const n, seed = 16, 13
	gen, err := NewGenerator(GeneratorConfig{Seed: seed, Classes: []Class{ClassFaulty}})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(n)

	serial := (&Runner{Workers: 1}).Run(scens)
	parallel := (&Runner{Workers: 8}).Run(scens)
	js, err := json.Marshal(Aggregate(seed, serial))
	if err != nil {
		t.Fatal(err)
	}
	jp, err := json.Marshal(Aggregate(seed, parallel))
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(jp) {
		t.Fatalf("faulty aggregate differs between workers=1 and workers=8:\n%s\n%s", js, jp)
	}
	if Aggregate(seed, serial).Overall.ClusterFails == 0 {
		t.Fatal("faulty fleet recorded no cluster failures")
	}
}

// Replan elision is invisible under faults: a faulty fleet planned fresh
// (unsealed policies) matches the elision-on run byte for byte.
func TestFaultyPlanCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a faulty fleet three times")
	}
	cfg := GeneratorConfig{
		Seed:     17,
		Classes:  []Class{ClassFaulty},
		Policies: []string{"heuristic", "minenergy", "maxaccuracy"},
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(8))

	want, err := json.Marshal((&Runner{Workers: 1}).Run(plannedFresh(t, scens)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := json.Marshal((&Runner{Workers: workers}).Run(scens))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: faulty elision-on results differ from fresh-planning results", workers)
		}
	}
}

// Aggregate edge cases: a group where every frame was degraded (healthy
// denominator zero) and a scenario with no frames at all must produce
// finite stats — NaN would poison the JSON report.
func TestAggregateDegradedEdgeCases(t *testing.T) {
	results := []Result{
		{
			ID: 0, Name: "all-degraded", Class: ClassFaulty, Platform: "p", Policy: "heuristic",
			Released: 100, Completed: 80, Missed: 10, Dropped: 5, JobsAborted: 5,
			ClusterFails: 1, DegradedFrames: 100, DegradedMissed: 10, DegradedDropped: 10,
			DurationS: 10,
		},
		{
			ID: 1, Name: "no-frames", Class: ClassFaulty, Platform: "p", Policy: "heuristic",
			ClusterFails: 2, DurationS: 10, UnhostedS: 10,
		},
	}
	rep := Aggregate(1, results)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("aggregate with degraded edge cases not marshallable: %v", err)
	}
	check := func(name string, g GroupStats) {
		for label, v := range map[string]float64{
			"missRate":         g.MissRate,
			"degradedMissRate": g.DegradedMissRate,
			"healthyMissRate":  g.HealthyMissRate,
			"meanRecoveryS":    g.MeanRecoveryS,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, label, v)
			}
		}
	}
	check("overall", rep.Overall)
	for k, g := range rep.ByClass {
		check("class "+string(k), g)
	}
	if rep.Overall.ClusterFails != 3 {
		t.Fatalf("ClusterFails = %d, want 3", rep.Overall.ClusterFails)
	}
	// All frames degraded: the healthy rate stays zero rather than 0/0.
	if rep.Overall.HealthyMissRate != 0 {
		t.Errorf("HealthyMissRate = %v with zero healthy frames", rep.Overall.HealthyMissRate)
	}
	if rep.Overall.DegradedMissRate != 0.2 {
		t.Errorf("DegradedMissRate = %v, want 0.2", rep.Overall.DegradedMissRate)
	}
	_ = data
}

// Golden pin for the fault-injection stack: one fixed faulty-only fleet.
// Regenerate with -update after deliberate behaviour changes only.
func TestGoldenFaultyReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 scenarios")
	}
	rep, _, err := Run(GeneratorConfig{Seed: 1, Classes: []Class{ClassFaulty}}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_faulty_seed1_n16.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("faulty report drifted from %s%s\n(if the change is intended, regenerate with -update and review the diff)",
			path, firstDiff(want, got))
	}
}

// Crash-resume over a faulty fleet: SIGKILL a shard mid-run (every
// scenario carries fault windows, so the kill lands mid-fault for the
// in-flight scenario) and the orchestrated resume must still match the
// single-process report byte for byte.
func TestOrchestrateSIGKILLResumeFaulty(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real shard subprocesses")
	}
	const seed = 29
	const workloads = 32
	const shards = 2
	cfg := helperFaultyConfig(seed)

	singleRep, singleRes, err := Run(cfg, workloads, 0)
	if err != nil {
		t.Fatal(err)
	}
	if singleRep.Overall.ClusterFails == 0 {
		t.Fatal("faulty fleet recorded no cluster failures")
	}

	dir := t.TempDir()
	start := CommandStart(helperArgv("runf", seed, workloads), os.Stderr)

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

	rep, res, err := Orchestrate(OrchestratorConfig{
		Config: cfg, Workloads: workloads, Shards: shards, Dir: dir,
		Start: start, StallTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, singleRep, singleRes), reportJSON(t, rep, res)) {
		t.Error("orchestrated faulty report after SIGKILL differs from single-process run")
	}
}
