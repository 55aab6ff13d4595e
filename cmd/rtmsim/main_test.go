package main

import (
	"bytes"
	"flag"
	"math"
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
// paper's Fig 2 and Fig 5 scenarios: on stdout the run summary, each
// DNN's final state and the timeline (testdata/<scenario>.golden), and on
// stderr the manager's decision stream (testdata/<scenario>.stderr.golden).
func TestScenarioGolden(t *testing.T) {
	for _, scenario := range []string{"fig2", "fig5"} {
		t.Run(scenario, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(&stdout, &stderr, scenario, 0.25); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", scenario+".golden"), stdout.Bytes())
			checkGolden(t, filepath.Join("testdata", scenario+".stderr.golden"), stderr.Bytes())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
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
		t.Fatalf("output drifted from %s:\n--- golden\n%s--- got\n%s(if the change is intended, regenerate with -update and review the diff)",
			path, want, got)
	}
}

// TestUnknownScenario: a scenario name rtmsim does not know is an error,
// not a default run.
func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, &out, "fig9", 0.25); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown scenario printed %q", out.String())
	}
}

// TestRejectsBadTick: a tick that is not a finite number of seconds above
// 0 is an error before anything prints. Without ticks the Fig 2 run
// printed a timeline that silently skipped its t=18 s and t=25 s events.
func TestRejectsBadTick(t *testing.T) {
	for _, tick := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		var out bytes.Buffer
		if err := run(&out, &out, "fig2", tick); err == nil {
			t.Errorf("tick %g accepted", tick)
		}
		if out.Len() != 0 {
			t.Errorf("tick %g printed %q", tick, out.String())
		}
	}
}
