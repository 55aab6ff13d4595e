package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates golden files instead of comparing against them:
//
//	go test ./internal/fleet -run 'TestGoldenReport|TestGoldenLearned' -update
//
// Only do this after deliberately changing generator/manager/simulator
// behaviour, and review the golden diff like code.
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenReport pins the exact report for one fixed config
// (seed 1, 32 scenarios, all platforms and classes). Any behavioural
// drift anywhere in the stack — scenario sampling, the simulator, the
// manager's planning, aggregation — shows up here as a readable JSON
// diff instead of silently shifting every downstream experiment.
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 32 scenarios")
	}
	rep, _, err := Run(GeneratorConfig{Seed: 1}, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_seed1_n32.json"), append(got, '\n'))
}

// TestGoldenLearned pins the learned tier, which the other goldens never
// run: the table Train writes for seed 7 over 8 workloads and one
// refinement epoch, and the fleetsim -results report of a 16-workload
// sweep that runs that table beside two built-ins. The sweep loads the
// checked-in table by its relative path, which the report names in its
// policy fields, so the path is part of the pinned bytes.
func TestGoldenLearned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a table and runs 48 scenarios")
	}
	table, _, err := Train(TrainConfig{Seed: 7, Workloads: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := table.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	tablePath := filepath.Join("testdata", "golden_learned_table_seed7_n8.json")
	checkGolden(t, tablePath, raw)

	cfg := GeneratorConfig{Seed: 7, Policies: []string{"heuristic", "minenergy", "learned:" + tablePath}}
	rep, res, err := Run(cfg, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The report as fleetsim -results writes it.
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Report
		Results []Result `json:"results,omitempty"`
	}{rep, res}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_learned_sweep_seed7_n16.json"), got.Bytes())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file with got under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
		t.Fatalf("output drifted from %s%s\n(if the change is intended, regenerate with -update and review the diff)",
			path, firstDiff(want, got))
	}
}

// firstDiff locates the first differing line so the failure reads as a
// diff hunk rather than two multi-kilobyte blobs.
func firstDiff(want, got []byte) string {
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("\nfirst difference at line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return ""
}
