package rtm

import (
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// TestPlanScratchPlatformSwitch: one scratch planning an odroid-xu3 view,
// then a flagship-soc view, then odroid-xu3 again must produce exactly the
// plans a fresh scratch produces for each — the core-scaling table is
// rebuilt whenever the view's platform changes, as it does for a pooled
// scratch serving unrelated callers.
func TestPlanScratchPlatformSwitch(t *testing.T) {
	odroid := managedView(t, hw.OdroidXU3(), []sim.App{
		dnn("d1", "a15", 4, 0.060),
		dnn("d2", "a7", 2, 0.200),
	})
	flagship := managedView(t, hw.FlagshipSoC(), sim.BenchApps())
	for _, name := range []string{"heuristic", "maxaccuracy", "minenergy"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := p.(sealedPolicy)
		var shared planScratch
		for i, v := range []View{odroid, flagship, odroid} {
			got := append([]Assignment(nil), sp.planInto(&v, &shared)...)
			var fresh planScratch
			want := sp.planInto(&v, &fresh)
			if len(want) == 0 {
				t.Fatalf("%s: view %d planned nothing", name, i)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: view %d (%s) on a reused scratch = %+v, fresh scratch = %+v",
					name, i, v.Platform.Name, got, want)
			}
		}
	}
}

// managedView runs apps on plat under the default manager for two
// simulated seconds and returns the manager's last planning input.
func managedView(t *testing.T, plat *hw.Platform, apps []sim.App) View {
	t.Helper()
	var reqs Requirements
	for _, a := range apps {
		if a.Kind == sim.KindDNN {
			reqs = append(reqs, AppRequirement{a.Name, Requirement{Priority: 1}})
		}
	}
	mgr := NewManager(reqs)
	e, err := sim.New(sim.Config{Platform: plat, Apps: apps, Controller: mgr, TickS: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	return mgr.LastView()
}
