package rtm

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// TestLedgerLatencyMatchesInferenceLatency pins the planner's tabulated
// latency to the formula it replaces: for every catalog cluster, every OPP
// and every core count a caller can pass (including out-of-range ones,
// which both sides clamp), planState.latencyS equals perf.InferenceLatencyS
// bit for bit. One ledger is reinitialised across platforms, so the table
// rebuild on a platform change is exercised as well.
func TestLedgerLatencyMatchesInferenceLatency(t *testing.T) {
	cat := hw.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	macsCases := []int64{1, 7_000_000, perf.MobileProfile().Levels[0].MACs}
	var st planState
	for _, name := range names {
		plat := cat[name]
		st.init(&View{Platform: plat})
		for ci, cl := range plat.Clusters {
			for oi, opp := range cl.OPPs {
				for n := -1; n <= cl.Cores+1; n++ {
					for _, macs := range macsCases {
						got, want := st.latencyS(ci, opp, n, macs), perf.InferenceLatencyS(cl, opp, n, macs)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%s opp %d, n=%d, macs=%d: ledger latency %v, InferenceLatencyS %v",
								name, cl.Name, oi, n, macs, got, want)
						}
					}
				}
			}
		}
	}
}

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
