package perf

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

func TestProfileValidate(t *testing.T) {
	good := PaperReferenceProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("reference profile invalid: %v", err)
	}
	bad := []ModelProfile{
		{Name: "empty"},
		{Name: "zero-macs", Levels: []LevelSpec{{Level: 1, MACs: 0}}},
		{Name: "non-increasing", Levels: []LevelSpec{
			{Level: 1, MACs: 100}, {Level: 2, MACs: 100}}},
		{Name: "bad-acc", Levels: []LevelSpec{{Level: 1, MACs: 100, Accuracy: 1.2}}},
		{Name: "gap", Levels: []LevelSpec{{Level: 1, MACs: 100}, {Level: 3, MACs: 200}}},
		{Name: "zero-based", Levels: []LevelSpec{{Level: 0, MACs: 100}, {Level: 1, MACs: 200}}},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("profile %q should be rejected", p.Name)
		}
	}
}

func TestProfileLevelLookup(t *testing.T) {
	p := PaperReferenceProfile()
	if p.MaxLevel() != 4 {
		t.Fatalf("MaxLevel = %d", p.MaxLevel())
	}
	l := p.Level(3)
	if l.Name != "75%" {
		t.Fatalf("level 3 name = %q", l.Name)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing level must panic")
		}
	}()
	p.Level(9)
}

func TestUniformProfileScaling(t *testing.T) {
	p := UniformProfile("u", 1000, 4000, []float64{0.5, 0.6, 0.7, 0.8}, nil)
	for k := 1; k <= 4; k++ {
		spec := p.Level(k)
		if spec.MACs != int64(250*k) {
			t.Fatalf("level %d MACs = %d", k, spec.MACs)
		}
		if spec.MemBytes != int64(1000*k) {
			t.Fatalf("level %d mem = %d", k, spec.MemBytes)
		}
	}
}

func TestLatencyMonotoneInFreqAndWork(t *testing.T) {
	c := hw.OdroidXU3().Cluster("a15")
	loOPP, hiOPP := c.MinOPP(), c.MaxOPP()
	if InferenceLatencyS(c, loOPP, 4, 1e6) <= InferenceLatencyS(c, hiOPP, 4, 1e6) {
		t.Fatal("higher frequency must reduce latency")
	}
	if InferenceLatencyS(c, hiOPP, 4, 1e6) >= InferenceLatencyS(c, hiOPP, 4, 2e6) {
		t.Fatal("more work must take longer")
	}
	if InferenceLatencyS(c, hiOPP, 1, 1e6) <= InferenceLatencyS(c, hiOPP, 4, 1e6) {
		t.Fatal("fewer cores must be slower")
	}
	if !math.IsInf(InferenceLatencyS(c, hiOPP, 0, 1e6), 1) {
		t.Fatal("zero cores must be infinitely slow")
	}
}

func TestCompanionPowerIncluded(t *testing.T) {
	p := hw.JetsonNano()
	gpu := p.Cluster("gpu")
	a57 := p.Cluster("a57")
	opp := gpu.OPPs[1] // 614 MHz
	with := InferencePowerMW(p, gpu, opp, 1, 0)
	alone := gpu.BusyPowerMW(opp, 1, 1)
	if with <= alone {
		t.Fatal("companion CPU power must be added for accelerator inference")
	}
	// CPU-only inference has no companion term.
	cpuP := InferencePowerMW(p, a57, a57.OPPs[0], 4, -1)
	if cpuP != a57.BusyPowerMW(a57.OPPs[0], 4, 1) {
		t.Fatal("CPU cluster must not add companion power")
	}
}

func TestEnumerateFig4aSpaceSize(t *testing.T) {
	// Fig 4(a): 4 model configs × (17 A15 + 12 A7 OPPs) = 116 points with
	// full clusters.
	plat := hw.OdroidXU3()
	pts := Enumerate(plat, PaperReferenceProfile(), EnumerateOptions{})
	if len(pts) != 116 {
		t.Fatalf("Fig 4(a) space has %d points, want 116", len(pts))
	}
}

func TestEnumerateFiltersAndCoreSweep(t *testing.T) {
	plat := hw.OdroidXU3()
	prof := PaperReferenceProfile()

	only15 := Enumerate(plat, prof, EnumerateOptions{Clusters: []string{"a15"}})
	if len(only15) != 4*17 {
		t.Fatalf("a15-only points = %d, want 68", len(only15))
	}
	for _, p := range only15 {
		if p.Cluster != "a15" {
			t.Fatal("cluster filter leaked")
		}
	}

	lvl2 := Enumerate(plat, prof, EnumerateOptions{Levels: []int{2}})
	if len(lvl2) != 17+12 {
		t.Fatalf("level-2 points = %d, want 29", len(lvl2))
	}

	sweep := Enumerate(plat, prof, EnumerateOptions{Clusters: []string{"a7"}, SweepCores: true})
	if len(sweep) != 4*4*12 {
		t.Fatalf("core-sweep points = %d, want 192", len(sweep))
	}
}

func TestEnumerateAcceleratorIgnoresCoreSweep(t *testing.T) {
	plat := hw.JetsonNano()
	pts := Enumerate(plat, PaperReferenceProfile(),
		EnumerateOptions{Clusters: []string{"gpu"}, SweepCores: true})
	// GPU is one "core": sweep must not multiply points.
	if len(pts) != 4*len(plat.Cluster("gpu").OPPs) {
		t.Fatalf("gpu points = %d", len(pts))
	}
}

func TestOperatingPointMetricsConsistent(t *testing.T) {
	plat := hw.OdroidXU3()
	for _, p := range Enumerate(plat, PaperReferenceProfile(), EnumerateOptions{}) {
		if p.EnergyMJ <= 0 || p.PowerMW <= 0 || p.LatencyS <= 0 {
			t.Fatalf("non-positive metric in %v", p)
		}
		if math.Abs(p.EnergyMJ-p.PowerMW*p.LatencyS) > 1e-9 {
			t.Fatalf("energy != power×latency in %v", p)
		}
	}
}

func TestTableIWorkedExampleShape(t *testing.T) {
	// The paper's Fig 4 narrative: "a 100% model on the A7 CPU at 900 MHz"
	// meets (400 ms, 100 mJ). Verify those metrics from the raw model.
	plat := hw.OdroidXU3()
	a7 := plat.Cluster("a7")
	opp := a7.OPPs[a7.NearestOPPIndex(0.9)]
	spec := PaperReferenceProfile().Level(4)
	lat := InferenceLatencyS(a7, opp, 4, spec.MACs)
	pw := InferencePowerMW(plat, a7, opp, 4, -1)
	if lat > 0.400 {
		t.Fatalf("A7@0.9GHz 100%% latency %.1fms exceeds 400ms budget", lat*1000)
	}
	if e := InferenceEnergyMJ(lat, pw); e > 100 {
		t.Fatalf("A7@0.9GHz 100%% energy %.1fmJ exceeds 100mJ budget", e)
	}
}

func TestPointString(t *testing.T) {
	plat := hw.OdroidXU3()
	pts := Enumerate(plat, PaperReferenceProfile(), EnumerateOptions{})
	if pts[0].String() == "" {
		t.Fatal("String must render")
	}
}
