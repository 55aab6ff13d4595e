package dyndnn

import (
	"sync"
	"testing"

	"github.com/emlrtm/emlrtm/internal/dataset"
)

// tiny is the briefly trained quick model the autoscaler tests share, with
// its dataset. Training it takes seconds, so it is trained once, on first
// use; err is what training returned.
var tiny struct {
	once sync.Once
	m    *Model
	ds   *dataset.Dataset
	err  error
}

// trainedTiny returns the shared trained model and its dataset. The tests
// only read the weights; the level a test sets is restored when it ends.
func trainedTiny(t *testing.T) (*Model, *dataset.Dataset) {
	t.Helper()
	tiny.once.Do(func() {
		m, err := New(QuickConfig())
		if err == nil {
			tc := QuickTrainConfig()
			tc.EpochsPerStep = 3
			tc.LR = 0.05
			tiny.ds = dataset.MustGenerate(miniData())
			_, err = m.TrainIncremental(tiny.ds, tc)
		}
		tiny.m, tiny.err = m, err
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	level := tiny.m.Level()
	t.Cleanup(func() { tiny.m.SetLevel(level) })
	return tiny.m, tiny.ds
}

func TestAutoScalerValidate(t *testing.T) {
	m := tinyModel(t)
	bad := []*AutoScaler{
		{Model: nil, Threshold: 0.5, StartLevel: 1, MaxLevel: 1},
		{Model: m, Threshold: -0.1, StartLevel: 1, MaxLevel: 4},
		{Model: m, Threshold: 1.5, StartLevel: 1, MaxLevel: 4},
		{Model: m, Threshold: 0.5, StartLevel: 0, MaxLevel: 4},
		{Model: m, Threshold: 0.5, StartLevel: 3, MaxLevel: 2},
		{Model: m, Threshold: 0.5, StartLevel: 1, MaxLevel: 9},
	}
	for i, a := range bad {
		if a.Validate() == nil {
			t.Fatalf("scaler %d should be rejected", i)
		}
	}
	if NewAutoScaler(m, 0.8).Validate() != nil {
		t.Fatal("default scaler must validate")
	}
}

func TestAutoScalerZeroThresholdNeverEscalates(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, ds := trainedTiny(t)
	a := NewAutoScaler(m, 0) // any confidence suffices
	rep, err := a.Evaluate(ds.ValX.Slice4D(0, 40), ds.ValY[:40])
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanLevel != 1 {
		t.Fatalf("mean level %.2f, want 1 (never escalate)", rep.MeanLevel)
	}
	if rep.MeanMACs != float64(m.MACs(1)) {
		t.Fatalf("mean MACs %.0f, want %d", rep.MeanMACs, m.MACs(1))
	}
}

func TestAutoScalerImpossibleThresholdAlwaysEscalates(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, ds := trainedTiny(t)
	a := NewAutoScaler(m, 1.0) // confidence 1.0 effectively unreachable
	rep, err := a.Evaluate(ds.ValX.Slice4D(0, 20), ds.ValY[:20])
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanLevel != float64(m.Levels()) {
		t.Fatalf("mean level %.2f, want %d (always run to the top)", rep.MeanLevel, m.Levels())
	}
}

func TestAutoScalerTradeoffMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, ds := trainedTiny(t)
	a := NewAutoScaler(m, 0.5)
	x := ds.ValX.Slice4D(0, 60)
	y := ds.ValY[:60]
	reps, err := a.ThresholdSweep(x, y, []float64{0.0, 0.6, 0.9, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Compute must be non-decreasing in the threshold.
	for i := 1; i < len(reps); i++ {
		if reps[i].MeanMACs < reps[i-1].MeanMACs-1e-9 {
			t.Fatalf("mean MACs decreased from %.0f to %.0f as threshold rose",
				reps[i-1].MeanMACs, reps[i].MeanMACs)
		}
	}
	// Every report is internally consistent.
	for _, r := range reps {
		total := 0
		for _, c := range r.LevelCounts {
			total += c
		}
		if total != r.N {
			t.Fatalf("level counts %v do not sum to %d", r.LevelCounts, r.N)
		}
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("accuracy %f", r.Accuracy)
		}
	}
	// The unrestricted top level should be at least as accurate as
	// never-escalate (it subsumes its capacity).
	if reps[len(reps)-1].Accuracy+0.05 < reps[0].Accuracy {
		t.Fatalf("always-escalate accuracy %.2f well below never-escalate %.2f",
			reps[len(reps)-1].Accuracy, reps[0].Accuracy)
	}
}

func TestAutoScalerRestoresModelLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	m, ds := trainedTiny(t)
	m.SetLevel(3)
	a := NewAutoScaler(m, 0.9)
	if _, err := a.Classify(ds.ValX.Slice4D(0, 1)); err != nil {
		t.Fatal(err)
	}
	if m.Level() != 3 {
		t.Fatalf("Classify left level %d, want 3 restored", m.Level())
	}
}

func TestAutoScalerRejectsBatch(t *testing.T) {
	m := tinyModel(t)
	ds := dataset.MustGenerate(miniData())
	a := NewAutoScaler(m, 0.5)
	if _, err := a.Classify(ds.ValX.Slice4D(0, 2)); err == nil {
		t.Fatal("batch of 2 accepted by single-input Classify")
	}
}
