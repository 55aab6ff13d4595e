package sim

import (
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// TestSnapshotIntoMatchesSnapshot: rebuilding a reused snapshot must
// capture exactly what a fresh Snapshot captures, at every point of a
// run — SnapshotInto is the manager's per-tick view source, so any drift
// here is a planning-input bug.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	// One reused snapshot across engines at different horizons: buffer
	// contents from the previous rebuild must never leak into the next.
	var reused Snapshot
	for _, horizon := range []float64{0.5, 1, 2, 4} {
		e, err := New(Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(horizon); err != nil {
			t.Fatal(err)
		}
		fresh := e.Snapshot()
		e.SnapshotInto(&reused)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("at t=%.1f: SnapshotInto diverged from Snapshot:\nfresh:  %+v\nreused: %+v",
				horizon, fresh, reused)
		}
	}
}

// TestSnapshotIntoZeroAllocSteadyState pins the reuse contract: once the
// snapshot's buffers have grown to the engine's working set, rebuilding
// it allocates nothing.
func TestSnapshotIntoZeroAllocSteadyState(t *testing.T) {
	e, err := New(Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	e.SnapshotInto(&s) // grow the buffers
	if allocs := testing.AllocsPerRun(100, func() { e.SnapshotInto(&s) }); allocs != 0 {
		t.Fatalf("steady-state SnapshotInto allocated %.1f times, want 0", allocs)
	}
}
