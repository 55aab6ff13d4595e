package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/experiments"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./cmd/paperrepro -run TestQuickGolden -update
//
// Only do this after deliberately changing what an experiment reports,
// and review the golden diff like code.
var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickGolden pins, byte for byte, what paperrepro -quick -csv prints
// for every experiment but fig3 (which trains the DNN for ~20 s): the
// paper's Table I, Fig 1, Fig 2, Fig 4(a), the Fig 4 budgets, Fig 5 and
// the ablations. Any drift in a paper-visible number fails here.
func TestQuickGolden(t *testing.T) {
	opts := experiments.Options{Quick: true, Seed: 1}
	var got bytes.Buffer
	for _, exp := range []string{"table1", "fig1", "fig2", "fig4a", "budgets", "fig5", "ablations"} {
		if err := run(&got, exp, opts, true); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}

	path := filepath.Join("testdata", "quick_csv.golden")
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
		t.Fatalf("output drifted from %s%s\n(if the change is intended, regenerate with -update and review the diff)",
			path, firstDiff(want, got.Bytes()))
	}
}

// TestUnknownExperiment: a misspelt -exp name must fail before any
// experiment runs, and the error must list the names that do exist.
func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "fig4", experiments.Options{Quick: true, Seed: 1}, false)
	if err == nil {
		t.Fatal("unknown experiment fig4 accepted")
	}
	for _, name := range append([]string{"all"}, experimentNames...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before rejecting the name", out.String())
	}
}

// firstDiff locates the first differing line so a failure reads as a
// diff hunk rather than two 200-line blobs.
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
