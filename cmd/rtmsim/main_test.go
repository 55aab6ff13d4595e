package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/rtmsim -run TestScenarioGolden -update
//
// Only do this after deliberately changing the simulation or the
// printout, and review the golden diff like code.
var update = flag.Bool("update", false, "rewrite golden files")

// TestScenarioGolden pins, byte for byte, what rtmsim prints for the
// paper's Fig 2 and Fig 5 scenarios: the run summary, each DNN's final
// state and the timeline.
func TestScenarioGolden(t *testing.T) {
	for _, scenario := range []string{"fig2", "fig5"} {
		t.Run(scenario, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got, scenario, 0.25, true); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", scenario+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("output drifted from %s:\n--- golden\n%s--- got\n%s(if the change is intended, regenerate with -update and review the diff)",
					path, want, got.Bytes())
			}
		})
	}
}

// TestUnknownScenario: a scenario name rtmsim does not know is an error,
// not a default run.
func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "fig9", 0.25, true); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown scenario printed %q", out.String())
	}
}
