package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadBaseline pins the baseline-preservation contract of the perf
// trajectory file: a missing file starts fresh, a valid file hands its
// recorded baseline through untouched, and — the regression this guards —
// a file that exists but fails to parse is a loud error instead of a
// silently dropped baseline (the old code swallowed the unmarshal error,
// so one corrupt artifact plus one rerun erased the recorded
// pre-optimisation numbers forever).
func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()

	t.Run("missing file is a fresh start", func(t *testing.T) {
		b, h, err := loadBaseline(filepath.Join(dir, "nope.json"))
		if err != nil || b != nil || h != nil {
			t.Fatalf("loadBaseline(missing) = %v, %v, %v; want nil, nil, nil", b, h, err)
		}
	})

	t.Run("valid file preserves its baseline", func(t *testing.T) {
		want := Numbers{Note: "pre-PR", Fleet: FleetNumbers{ScenariosPerSec: 123.5, Runs: 192}}
		path := filepath.Join(dir, "valid.json")
		raw, err := json.Marshal(Doc{Schema: 1, Baseline: &want, Current: Numbers{Note: "old current"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := loadBaseline(path)
		if err != nil {
			t.Fatalf("loadBaseline(valid) error: %v", err)
		}
		if got == nil || got.Note != want.Note || got.Fleet.ScenariosPerSec != want.Fleet.ScenariosPerSec {
			t.Fatalf("loadBaseline(valid) = %+v, want %+v", got, want)
		}
	})

	t.Run("valid file without a baseline stays baseline-free", func(t *testing.T) {
		path := filepath.Join(dir, "nobaseline.json")
		raw, err := json.Marshal(Doc{Schema: 1, Current: Numbers{Note: "current only"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		b, _, err := loadBaseline(path)
		if err != nil || b != nil {
			t.Fatalf("loadBaseline(no-baseline) = %v, %v; want nil, nil", b, err)
		}
	})

	t.Run("history rides along untouched", func(t *testing.T) {
		hist := []HistoryEntry{
			{Timestamp: "2026-01-01T00:00:00Z", Note: "seed", ScenariosPerSec: 226.8, Allocs: map[string]int64{"replan": 23}},
			{Timestamp: "2026-02-01T00:00:00Z", Note: "engine reuse", ScenariosPerSec: 609.3},
		}
		path := filepath.Join(dir, "history.json")
		raw, err := json.Marshal(Doc{Schema: 1, Current: Numbers{}, History: hist})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, err := loadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(hist) || got[0].Note != "seed" || got[1].ScenariosPerSec != 609.3 ||
			got[0].Allocs["replan"] != 23 {
			t.Fatalf("history mangled on load: %+v", got)
		}
	})

	t.Run("corrupt file fails loudly", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(path, []byte(`{"schema": 1, "baseline": {trunc`), 0o644); err != nil {
			t.Fatal(err)
		}
		b, _, err := loadBaseline(path)
		if err == nil {
			t.Fatalf("loadBaseline(corrupt) = %+v, nil; want an error — a corrupt artifact must not silently drop the baseline", b)
		}
		if !strings.Contains(err.Error(), "refusing to overwrite") {
			t.Fatalf("loadBaseline(corrupt) error %q should explain it refuses to overwrite", err)
		}
	})
}

// TestHistoryEntry pins what a rebaseline appends to the trajectory log:
// the headline throughput and the deterministic allocs/op per benchmark.
func TestHistoryEntry(t *testing.T) {
	n := Numbers{
		Timestamp: "2026-08-07T00:00:00Z",
		Note:      "plan reuse",
		Fleet:     FleetNumbers{ScenariosPerSec: 640},
		Benchmarks: map[string]BenchNumbers{
			"replan":             {NsPerOp: 1000, AllocsPerOp: 23},
			"replan-elided":      {NsPerOp: 10, AllocsPerOp: 0},
			"engine-run-managed": {NsPerOp: 400, AllocsPerOp: 4},
		},
	}
	h := historyEntry(n)
	if h.Timestamp != n.Timestamp || h.Note != n.Note || h.ScenariosPerSec != 640 {
		t.Fatalf("header fields mangled: %+v", h)
	}
	if len(h.Allocs) != 3 || h.Allocs["replan"] != 23 || h.Allocs["replan-elided"] != 0 {
		t.Fatalf("allocs map mangled: %+v", h.Allocs)
	}
}

// TestSetWallMsNearestRank pins the wall-time percentiles to the fleet
// reports' nearest rank: of the 32 samples the sweep times, p95 is the
// 31st (⌈32 × 0.95⌉), where rounding 30.4 half up would pick the 30th.
func TestSetWallMsNearestRank(t *testing.T) {
	ms := make([]float64, 32)
	for i := range ms {
		ms[i] = float64(i)
	}
	var fn FleetNumbers
	fn.setWallMs(ms)
	if fn.P50WallMs != 15 || fn.P95WallMs != 30 || fn.MaxWallMs != 31 {
		t.Fatalf("p50/p95/max = %g/%g/%g, want samples 15/30/31", fn.P50WallMs, fn.P95WallMs, fn.MaxWallMs)
	}
}
