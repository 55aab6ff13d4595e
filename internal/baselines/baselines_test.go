package baselines

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

func TestBuildStaticSetCoversSettings(t *testing.T) {
	plat := hw.OdroidXU3()
	prof := perf.PaperReferenceProfile()
	set := BuildStaticSet(plat, prof, 0.250)
	if len(set.Models) == 0 {
		t.Fatal("empty static set")
	}
	// Settings too slow for even the 25% model produce no entry; fast
	// settings carry the 100% model. Both extremes must appear.
	total := 0
	for _, cl := range plat.Clusters {
		total += len(cl.OPPs)
	}
	if len(set.Models) >= total {
		t.Fatalf("every setting got a model (%d of %d); slow settings must be excluded",
			len(set.Models), total)
	}
	saw100, saw25 := false, false
	for _, m := range set.Models {
		if m.MACs == prof.Level(4).MACs {
			saw100 = true
		}
		if m.MACs == prof.Level(1).MACs {
			saw25 = true
		}
	}
	if !saw100 || !saw25 {
		t.Fatalf("expected both extremes in the set (100%%: %v, 25%%: %v)", saw100, saw25)
	}
}

func TestStaticSetStorageAccounting(t *testing.T) {
	plat := hw.OdroidXU3()
	prof := perf.PaperReferenceProfile()
	set := BuildStaticSet(plat, prof, 0.250)
	distinct := set.DistinctModels()
	if distinct < 2 || distinct > prof.MaxLevel() {
		t.Fatalf("distinct models = %d, want within [2,%d]", distinct, prof.MaxLevel())
	}
	// Storage equals the sum of the distinct model sizes.
	var want int64
	seen := map[int64]bool{}
	for _, m := range set.Models {
		if !seen[m.Bytes] {
			seen[m.Bytes] = true
			want += m.Bytes
		}
	}
	if got := set.StorageBytes(); got != want {
		t.Fatalf("StorageBytes = %d, want %d", got, want)
	}
	// The static set always stores at least as much as one dynamic model.
	if set.StorageBytes() < prof.Level(prof.MaxLevel()).MemBytes {
		t.Fatal("static set cannot be smaller than the full model")
	}
}

func TestStaticSetTighterBudgetSmallerModels(t *testing.T) {
	plat := hw.OdroidXU3()
	prof := perf.PaperReferenceProfile()
	loose := BuildStaticSet(plat, prof, 2.0)
	tight := BuildStaticSet(plat, prof, 0.060)
	maxMACs := func(s StaticModelSet) int64 {
		var m int64
		for _, x := range s.Models {
			if x.MACs > m {
				m = x.MACs
			}
		}
		return m
	}
	if maxMACs(tight) >= maxMACs(loose) {
		t.Fatal("tighter budgets must force smaller models")
	}
	if len(tight.Models) >= len(loose.Models) {
		t.Fatal("tighter budgets must exclude more settings")
	}
}

func TestBigLittleAccounting(t *testing.T) {
	prof := perf.PaperReferenceProfile()
	bl := NewBigLittle(prof, 0.25)
	if bl.Little != prof.Level(1) || bl.Big != prof.Level(4) || bl.EscalationRate != 0.25 {
		t.Fatalf("big/little = %+v, want the profile's extreme levels at rate 0.25", bl)
	}
	if bl.StorageBytes() != prof.Level(1).MemBytes+prof.Level(4).MemBytes {
		t.Fatal("storage must be both models")
	}
}
