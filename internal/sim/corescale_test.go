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
