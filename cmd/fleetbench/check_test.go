package main

import (
	"strings"
	"testing"
)

// checkFixture is a matched baseline/current pair with no regressions;
// tests mutate the current side to inject specific defects.
func checkFixture() (*Numbers, Numbers) {
	base := &Numbers{
		GoVersion:  "go1.24.0",
		GOMAXPROCS: 8,
		Fleet:      FleetNumbers{Workers: 8, ScenariosPerSec: 1000},
		Benchmarks: map[string]BenchNumbers{
			"engine-run": {NsPerOp: 900e3, BytesPerOp: 0, AllocsPerOp: 0},
			"replan":     {NsPerOp: 10e3, BytesPerOp: 256, AllocsPerOp: 3},
		},
	}
	cur := Numbers{
		GoVersion:  "go1.24.0",
		GOMAXPROCS: 8,
		Fleet:      FleetNumbers{Workers: 8, ScenariosPerSec: 980},
		Benchmarks: map[string]BenchNumbers{
			"engine-run": {NsPerOp: 910e3, BytesPerOp: 0, AllocsPerOp: 0},
			"replan":     {NsPerOp: 11e3, BytesPerOp: 256, AllocsPerOp: 3},
		},
	}
	return base, cur
}

func TestCheckRegressionPasses(t *testing.T) {
	base, cur := checkFixture()
	r := checkRegression(base, cur, 0)
	if !r.ok() {
		t.Fatalf("clean comparison failed: %+v", r)
	}
	if !strings.Contains(r.render(), "check OK") {
		t.Errorf("report does not say OK:\n%s", r.render())
	}
}

// TestCheckRegressionCatchesAllocRegression is the ISSUE's deliberate-
// regression demonstration: one extra alloc/op over baseline must fail
// the gate at the default zero slack.
func TestCheckRegressionCatchesAllocRegression(t *testing.T) {
	base, cur := checkFixture()
	cur.Benchmarks["replan"] = BenchNumbers{NsPerOp: 11e3, BytesPerOp: 300, AllocsPerOp: 4}
	r := checkRegression(base, cur, 0)
	if r.ok() {
		t.Fatal("alloc regression passed the gate")
	}
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "replan") {
		t.Fatalf("violations = %v, want one naming replan", r.Violations)
	}

	// The same regression inside the configured slack passes.
	r = checkRegression(base, cur, 1)
	if !r.ok() {
		t.Fatalf("regression within slack still failed: %+v", r)
	}
}

func TestCheckRegressionCatchesMissingBenchmark(t *testing.T) {
	base, cur := checkFixture()
	delete(cur.Benchmarks, "engine-run")
	r := checkRegression(base, cur, 0)
	if r.ok() {
		t.Fatal("missing benchmark passed the gate")
	}
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "missing") {
		t.Fatalf("violations = %v, want one about the missing benchmark", r.Violations)
	}
}

// TestCheckRegressionEnvMismatch pins that a goVersion or gomaxprocs
// difference never stops the gate: it is annotated loudly, and allocs/op,
// which depend only on the code and toolchain, are still checked.
func TestCheckRegressionEnvMismatch(t *testing.T) {
	base, cur := checkFixture()
	cur.GoVersion = "go1.24.5"
	cur.GOMAXPROCS = 4

	r := checkRegression(base, cur, 0)
	if !r.ok() {
		t.Fatalf("env mismatch alone failed the gate: %+v", r)
	}
	if len(r.Mismatches) != 2 {
		t.Fatalf("mismatches = %v, want goVersion and gomaxprocs", r.Mismatches)
	}
	if !strings.Contains(r.render(), "env-mismatch") {
		t.Errorf("report is not loud about the mismatch:\n%s", r.render())
	}

	cur.Benchmarks["engine-run"] = BenchNumbers{AllocsPerOp: 5}
	r = checkRegression(base, cur, 0)
	if r.ok() || r.Refused {
		t.Fatalf("alloc regression under env mismatch = %+v, want a checked failure", r)
	}
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "engine-run") {
		t.Fatalf("violations = %v, want only the engine-run alloc regression", r.Violations)
	}
}

func TestCheckRegressionNoBaseline(t *testing.T) {
	_, cur := checkFixture()
	r := checkRegression(nil, cur, 0)
	if r.ok() {
		t.Fatal("check without a baseline passed")
	}
	if !strings.Contains(r.render(), "rebaseline") {
		t.Errorf("report does not point at -rebaseline:\n%s", r.render())
	}
}
