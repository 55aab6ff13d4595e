package sim

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// TestTabulatedRateMatchesEffectiveRate pins the job-rate table to the
// formula it replaces: for every catalog cluster, every OPP (reached
// through setOPP, as SetOPP does) and every core
// count a caller can pass (including out-of-range ones, which both sides
// clamp), the tabulated rate equals hw.Cluster.EffectiveRate bit for bit.
func TestTabulatedRateMatchesEffectiveRate(t *testing.T) {
	e := &Engine{}
	for name, plat := range hw.Catalog() {
		// Reset the same engine across platforms so the tables are also
		// checked after refilling reused storage.
		if err := e.Reset(Config{Platform: plat}); err != nil {
			t.Fatal(err)
		}
		for _, cs := range e.clusterList {
			for oi, opp := range cs.c.OPPs {
				cs.setOPP(oi)
				for n := -1; n <= cs.c.Cores+1; n++ {
					got, want := cs.rate(n), cs.c.EffectiveRate(opp, n)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s opp %d, n=%d: tabulated rate %v, EffectiveRate %v",
							name, cs.c.Name, oi, n, got, want)
					}
				}
			}
		}
	}
}

// TestBusyPowerMatchesBusyPowerMW pins the cached OPP power factor to the
// formula it replaces: for every catalog cluster, every OPP (reached
// through setOPP, as SetOPP does) and utilisations across [0,1], the
// cached busy power equals hw.Cluster.BusyPowerMW with every core active,
// bit for bit.
func TestBusyPowerMatchesBusyPowerMW(t *testing.T) {
	e := &Engine{}
	for name, plat := range hw.Catalog() {
		if err := e.Reset(Config{Platform: plat}); err != nil {
			t.Fatal(err)
		}
		for _, cs := range e.clusterList {
			for oi := len(cs.c.OPPs) - 1; oi >= 0; oi-- {
				cs.setOPP(oi)
				for _, util := range []float64{0, 1e-9, 0.1, 1.0 / 3, 0.5, 0.6 + 0.4/3, 0.999999, 1} {
					got, want := cs.busyPowerMW(util), cs.c.BusyPowerMW(cs.c.OPPs[oi], cs.c.Cores, util)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s opp %d, util %v: cached busy power %v, BusyPowerMW %v",
							name, cs.c.Name, oi, util, got, want)
					}
				}
			}
		}
	}
}

// TestDeriveFastPathsMatchFormula pins derive's shortcuts to the general
// formulas they replace, bit for bit, for every catalog cluster and OPP:
// the whole-device rate setOPP caches is EffectiveRate at every core; a
// lone active job on an accelerator gets max(0, 1−render load)/1 of it,
// under render loads across [0, 1]; and a lone job on n CPU cores loads
// the cluster by n/cores, its placement's cached core fraction, and runs
// at EffectiveRate on n cores.
func TestDeriveFastPathsMatchFormula(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, plat := range hw.Catalog() {
		for _, c := range plat.Clusters {
			apps := []App{dnnApp("d", c.Name, c.Cores, 1, 1)}
			if c.Type.IsAccelerator() {
				apps = append(apps, App{Name: "r", Kind: KindRender, Util: 0.5, Placement: Placement{Cluster: c.Name}})
			}
			e := mustEngine(t, Config{Platform: plat, Apps: apps})
			if err := e.Run(1e-6); err != nil {
				t.Fatal(err)
			}
			a, cs := e.appList[0], e.cluster(c.Name)
			if !a.jobActive {
				t.Fatalf("%s/%s: the job finished within a microsecond", name, c.Name)
			}
			for oi, opp := range c.OPPs {
				cs.setOPP(oi)
				if want := c.EffectiveRate(opp, c.Cores); !same(cs.deviceRate, want) {
					t.Fatalf("%s/%s opp %d: cached device rate %v, EffectiveRate %v", name, c.Name, oi, cs.deviceRate, want)
				}
				if c.Type.IsAccelerator() {
					for _, u := range []float64{1e-9, 0.1, 1.0 / 3, 0.5, 0.75, 0.999999, 1} {
						e.appList[1].Util = u
						e.derive(cs)
						active := 1
						share := max(0, 1-u) / float64(active)
						if !same(cs.share, share) || !same(a.rate, c.EffectiveRate(opp, c.Cores)*share) {
							t.Fatalf("%s/%s opp %d, render %v: share %v rate %v, want %v and %v", name, c.Name, oi, u,
								cs.share, a.rate, share, c.EffectiveRate(opp, c.Cores)*share)
						}
					}
					continue
				}
				for n := 1; n <= c.Cores; n++ {
					a.setPlacement(Placement{Cluster: c.Name, Cores: n}, cs)
					e.derive(cs)
					if frac := float64(n) / float64(c.Cores); !same(cs.own, frac) || !same(a.rate, c.EffectiveRate(opp, n)) {
						t.Fatalf("%s/%s opp %d, %d cores: load %v rate %v, want %v and %v", name, c.Name, oi, n,
							cs.own, a.rate, frac, c.EffectiveRate(opp, n))
					}
				}
			}
		}
	}
}
