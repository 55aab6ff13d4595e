package dyndnn

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/dataset"
)

func tinyModel(t *testing.T) *Model {
	t.Helper()
	cfg := QuickConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Groups: 0, Classes: 10, ImageSize: 32, InputChannels: 3, StageWidths: []int{8, 16, 32}},
		{Groups: 4, Classes: 1, ImageSize: 32, InputChannels: 3, StageWidths: []int{8, 16, 32}},
		{Groups: 4, Classes: 10, ImageSize: 30, InputChannels: 3, StageWidths: []int{8, 16, 32}},
		{Groups: 4, Classes: 10, ImageSize: 32, InputChannels: 0, StageWidths: []int{8, 16, 32}},
		{Groups: 4, Classes: 10, ImageSize: 32, InputChannels: 3, StageWidths: []int{8, 16}},
		{Groups: 4, Classes: 10, ImageSize: 32, InputChannels: 3, StageWidths: []int{8, 0, 32}},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestLevelNames(t *testing.T) {
	m := tinyModel(t)
	want := []string{"25%", "50%", "75%", "100%"}
	for i, w := range want {
		if got := m.LevelName(i + 1); got != w {
			t.Fatalf("LevelName(%d) = %q, want %q", i+1, got, w)
		}
	}
}

func TestMACsLinearInLevel(t *testing.T) {
	m := tinyModel(t)
	base := m.MACs(1)
	if base <= 0 {
		t.Fatal("MACs(1) must be positive")
	}
	for level := 2; level <= m.Levels(); level++ {
		if got := m.MACs(level); got != base*int64(level) {
			t.Fatalf("MACs(%d) = %d, want %d (linear)", level, got, base*int64(level))
		}
	}
}

func TestParamsMonotoneAndMemoryMatches(t *testing.T) {
	m := tinyModel(t)
	prev := 0
	for level := 1; level <= m.Levels(); level++ {
		p := m.Params(level)
		if p <= prev {
			t.Fatalf("Params(%d) = %d not > Params(%d) = %d", level, p, level-1, prev)
		}
		if m.MemoryBytes(level) != int64(p)*4 {
			t.Fatalf("MemoryBytes(%d) != 4*Params", level)
		}
		prev = p
	}
}

func TestForwardAllLevels(t *testing.T) {
	m := tinyModel(t)
	ds := dataset.MustGenerate(miniData())
	x := ds.ValX.Slice4D(0, 4)
	for level := 1; level <= m.Levels(); level++ {
		m.SetLevel(level)
		out := m.Forward(x)
		if out.Dim(0) != 4 || out.Dim(1) != m.Cfg.Classes {
			t.Fatalf("level %d: output shape %v", level, out.Shape())
		}
	}
}

func miniData() dataset.Config {
	c := dataset.QuickConfig()
	c.TrainN = 600
	c.ValN = 300
	// Easier than the experiment-scale noise: this test checks training
	// invariants (freezing, monotone capacity benefit), not the Fig 4(b)
	// accuracy shape, so it uses a setting where learning is fast and
	// reliable under a 2-epoch budget.
	c.Noise = 0.5
	return c
}

func TestTrainIncrementalInvariantsAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	m := tinyModel(t)
	ds := dataset.MustGenerate(miniData())
	tc := QuickTrainConfig()
	tc.EpochsPerStep = 3
	tc.LR = 0.05

	pre1 := m.Net.ParamChecksum(0) // trivially constant, sanity
	rep, err := m.TrainIncremental(ds, tc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.ParamChecksum(0) != pre1 {
		t.Fatal("checksum(0) must be the FNV basis constant")
	}
	if len(rep.Steps) != m.Levels() {
		t.Fatalf("got %d step reports, want %d", len(rep.Steps), m.Levels())
	}

	// All configurations must beat chance after training.
	chance := 1.0 / float64(m.Cfg.Classes)
	results := m.EvaluateAll(ds)
	for _, r := range results {
		if r.Accuracy < chance*1.5 {
			t.Fatalf("%s model accuracy %.3f barely above chance", r.LevelName, r.Accuracy)
		}
	}
	// Capacity helps: the full model must outperform the smallest.
	if results[len(results)-1].Accuracy <= results[0].Accuracy {
		t.Fatalf("100%% model (%.3f) not better than 25%% model (%.3f)",
			results[len(results)-1].Accuracy, results[0].Accuracy)
	}
	// Confidence must be a valid probability.
	for _, r := range results {
		if r.Confidence < chance || r.Confidence > 1 {
			t.Fatalf("%s confidence %.3f out of range", r.LevelName, r.Confidence)
		}
	}
	// Per-class accuracy must cover all classes.
	for _, r := range results {
		if len(r.PerClass) != m.Cfg.Classes {
			t.Fatalf("per-class length %d", len(r.PerClass))
		}
	}
}

func TestTrainRejectsMismatchedDataset(t *testing.T) {
	m := tinyModel(t) // 16×16 input
	big := dataset.DefaultConfig()
	big.TrainN, big.ValN = 20, 20 // keep generation cheap
	ds := dataset.MustGenerate(big)
	if _, err := m.TrainIncremental(ds, QuickTrainConfig()); err == nil {
		t.Fatal("expected error for 32x32 data into 16x16 model")
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	m := tinyModel(t)
	ds := dataset.MustGenerate(miniData())
	tc := QuickTrainConfig()
	tc.EpochsPerStep = 0
	if _, err := m.TrainIncremental(ds, tc); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

func TestSwitchCostDynamicVsStatic(t *testing.T) {
	m := tinyModel(t)
	sc := DefaultSwitchCostModel()
	dyn := sc.DynamicSwitch(1, 4)
	static := sc.StaticSwitch(m.MemoryBytes(4))
	if dyn.BytesMoved != 0 {
		t.Fatal("dynamic switch must move zero bytes")
	}
	if dyn.LatencyS >= static.LatencyS {
		t.Fatalf("dynamic switch latency %.6fs not below static %.6fs", dyn.LatencyS, static.LatencyS)
	}
	if static.EnergyJ <= dyn.EnergyJ {
		t.Fatal("static switch must cost more energy")
	}
	if same := sc.DynamicSwitch(2, 2); same.LatencyS != 0 || same.EnergyJ != 0 {
		t.Fatal("no-op switch must be free")
	}
}

func TestSetLevelDoesNotTouchWeights(t *testing.T) {
	m := tinyModel(t)
	before := m.Net.ParamChecksum(m.Levels())
	for _, l := range []int{1, 3, 2, 4, 1} {
		m.SetLevel(l)
	}
	if m.Net.ParamChecksum(m.Levels()) != before {
		t.Fatal("SetLevel must not modify weights")
	}
}
