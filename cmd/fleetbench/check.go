package main

import (
	"fmt"
	"sort"
	"strings"
)

// checkResult is the outcome of one checkRegression call.
type checkResult struct {
	// Refused is set when there is no recorded baseline: no comparison was
	// attempted and the caller must exit non-zero.
	Refused bool
	// Mismatches lists every environment difference found (goVersion,
	// gomaxprocs). They are annotations, not failures.
	Mismatches []string
	// Violations lists every threshold breach. Empty + !Refused means pass.
	Violations []string
	// Notes lists loud annotations, such as why a comparison was refused.
	Notes []string
}

func (r checkResult) ok() bool { return !r.Refused && len(r.Violations) == 0 }

// render formats the result as the human-readable report that goes to
// stderr and the CI artifact.
func (r checkResult) render() string {
	var b strings.Builder
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "env-mismatch: %s\n", m)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "REGRESSION: %s\n", v)
	}
	switch {
	case r.Refused:
		b.WriteString("check REFUSED: nothing to compare against\n")
	case len(r.Violations) > 0:
		fmt.Fprintf(&b, "check FAILED: %d regression(s) against recorded baseline\n", len(r.Violations))
	default:
		b.WriteString("check OK: no regressions against recorded baseline\n")
	}
	return b.String()
}

// checkRegression compares current numbers against the recorded baseline,
// tolerating allocSlack extra allocs/op per micro-benchmark. Allocation
// counts are deterministic for a fixed toolchain, so a slack of 0 is not
// flaky: any increase is a real regression. It is a pure function so the
// deliberate-regression tests can drive it directly.
//
// Policy: allocs/op is checked strictly and always — it is deterministic
// for a fixed toolchain and does not depend on the machine, so even a
// cross-machine comparison is meaningful. A goVersion or gomaxprocs
// difference is annotated loudly but does not stop the check. Wall-clock
// throughput is not gated here: it is machine- and load-dependent, and
// the repository benchmark (bench/) owns it.
func checkRegression(base *Numbers, cur Numbers, allocSlack int64) checkResult {
	var r checkResult
	if base == nil {
		r.Refused = true
		r.Notes = append(r.Notes, "no recorded baseline in the bench file; run fleetbench -rebaseline to record one")
		return r
	}
	if base.GoVersion != cur.GoVersion {
		r.Mismatches = append(r.Mismatches,
			fmt.Sprintf("goVersion: baseline %q vs current %q", base.GoVersion, cur.GoVersion))
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		r.Mismatches = append(r.Mismatches,
			fmt.Sprintf("gomaxprocs: baseline %d vs current %d", base.GOMAXPROCS, cur.GOMAXPROCS))
	}

	// Allocs: every benchmark the baseline recorded must still exist and
	// must not allocate more than baseline + slack. A benchmark that
	// disappeared is a violation, not a skip — silently dropping the
	// measurement is how a regression hides.
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			r.Violations = append(r.Violations,
				fmt.Sprintf("%s: in baseline (%d allocs/op) but missing from current run", name, b.AllocsPerOp))
			continue
		}
		if limit := b.AllocsPerOp + allocSlack; c.AllocsPerOp > limit {
			r.Violations = append(r.Violations,
				fmt.Sprintf("%s: %d allocs/op exceeds baseline %d + slack %d",
					name, c.AllocsPerOp, b.AllocsPerOp, allocSlack))
		}
	}
	return r
}
