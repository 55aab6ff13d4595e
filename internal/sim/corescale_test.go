package sim

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// TestTabulatedRateMatchesEffectiveRate pins the job-rate table to the
// formula it replaces: for every catalog cluster, every OPP and every core
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
				for n := -1; n <= cs.c.Cores+1; n++ {
					got, want := cs.rate(opp, n), cs.c.EffectiveRate(opp, n)
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
