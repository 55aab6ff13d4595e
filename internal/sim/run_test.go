package sim

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// TestRunContinues: Run(5) then Run(10) covers exactly the events a single
// Run(10) does — the events queued past the first end are neither dropped
// nor queued twice — with and without a ticking controller.
func TestRunContinues(t *testing.T) {
	for _, c := range []struct {
		name  string
		ctrl  Controller
		tickS float64
	}{
		{"uncontrolled", nil, 0},
		{"ticking", &boundaryCtrl{}, 0.25},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps(), Controller: c.ctrl, TickS: c.tickS, LogEvents: true}
			whole := mustEngine(t, cfg)
			if err := whole.Run(10); err != nil {
				t.Fatal(err)
			}
			split := mustEngine(t, cfg)
			for _, endS := range []float64{5, 10} {
				if err := split.Run(endS); err != nil {
					t.Fatal(err)
				}
			}
			want := whole.Report()
			if diff := reportDiff(want, split.Report()); len(diff) > 0 {
				t.Errorf("Run(5); Run(10) moved %d report fields from Run(10), first: %s", len(diff), diff[0])
			}
			if app, _ := whole.App("dnn1"); app.Released == 0 {
				t.Fatal("dnn1 released nothing; the comparison is vacuous")
			}
		})
	}
}

// TestRunRejectsEndNotAfterClock: the clock never moves back, so a Run
// that ends at or before it is an error, and a rejected call leaves the
// engine able to continue.
func TestRunRejectsEndNotAfterClock(t *testing.T) {
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()})
	for _, endS := range []float64{0, -1} {
		if err := e.Run(endS); err == nil {
			t.Errorf("Run(%g) on a fresh engine succeeded", endS)
		}
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, endS := range []float64{2, 1} {
		if err := e.Run(endS); err == nil {
			t.Errorf("Run(%g) after Run(2) succeeded", endS)
		}
	}
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 3 {
		t.Fatalf("clock at %g after Run(3)", e.Now())
	}
}
