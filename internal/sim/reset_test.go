package sim

import (
	"encoding/json"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// reportJSON canonicalises a report for byte comparison: the encoding
// covers every exported field, including the full event log.
func reportJSON(t *testing.T, rep Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResetEquivalence is the tentpole's correctness pin at the engine
// layer: Reset-then-Run on a reused engine must produce a report
// byte-identical to New-then-Run of the same config, including across
// config changes that shrink and regrow the backing stores (fewer apps,
// different platform, then back).
func TestResetEquivalence(t *testing.T) {
	big := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps(), LogEvents: true}
	small := Config{
		Platform:  hw.OdroidXU3(),
		Apps:      []App{dnnApp("solo", "a15", 4, 3, 0.05)},
		LogEvents: true,
	}
	// The reuse sequence big→small→big exercises store shrink, map clear
	// with stale keys, and regrowth into retained capacity.
	seq := []Config{big, small, big, small, big}

	var reused *Engine
	for i, cfg := range seq {
		fresh := mustEngine(t, cfg)
		if err := fresh.Run(10); err != nil {
			t.Fatal(err)
		}
		want := reportJSON(t, fresh.Report())

		if reused == nil {
			reused = mustEngine(t, cfg)
		} else if err := reused.Reset(cfg); err != nil {
			t.Fatalf("step %d: Reset: %v", i, err)
		}
		if err := reused.Run(10); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := reportJSON(t, reused.Report())
		if string(got) != string(want) {
			t.Fatalf("step %d: reused-engine report differs from fresh engine\nfresh:  %s\nreused: %s", i, want, got)
		}
	}
}

// TestResetAfterError: a Reset that fails validation leaves the engine
// poisoned only until the next successful Reset, which must fully rewind
// it again.
func TestResetAfterError(t *testing.T) {
	good := Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", 4, 3, 0.05)}, LogEvents: true}
	e := mustEngine(t, good)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Apps = []App{dnnApp("d", "nope", 4, 3, 0.05)}
	if err := e.Reset(bad); err == nil {
		t.Fatal("Reset accepted an app on an unknown cluster")
	}

	if err := e.Reset(good); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	fresh := mustEngine(t, good)
	if err := fresh.Run(5); err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, e.Report())) != string(reportJSON(t, fresh.Report())) {
		t.Fatal("report after recovering from a failed Reset differs from a fresh engine")
	}
}

// TestResetRejectsDuplicateApp: validation inside Reset sees the apps
// inserted so far, not leftovers of the previous run.
func TestResetRejectsDuplicateApp(t *testing.T) {
	cfg := Config{Platform: hw.OdroidXU3(), Apps: []App{
		dnnApp("d", "a15", 4, 3, 0.05),
		dnnApp("d", "a7", 4, 3, 0.05),
	}}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted duplicate app names")
	}
	e := mustEngine(t, Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", 4, 3, 0.05)}})
	if err := e.Reset(cfg); err == nil {
		t.Fatal("Reset accepted duplicate app names")
	}
}
