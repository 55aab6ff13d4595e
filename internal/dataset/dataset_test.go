package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

func TestGenerateShapes(t *testing.T) {
	cfg := QuickConfig()
	ds := MustGenerate(cfg)
	wantTrain := []int{cfg.TrainN, cfg.Channels, cfg.Size, cfg.Size}
	for i, d := range ds.TrainX.Shape() {
		if d != wantTrain[i] {
			t.Fatalf("train shape %v, want %v", ds.TrainX.Shape(), wantTrain)
		}
	}
	if len(ds.TrainY) != cfg.TrainN || len(ds.ValY) != cfg.ValN {
		t.Fatal("label lengths mismatch")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(QuickConfig())
	b := MustGenerate(QuickConfig())
	if !a.TrainX.AllClose(b.TrainX, 0) || !a.ValX.AllClose(b.ValX, 0) {
		t.Fatal("same seed must generate identical data")
	}
	c := QuickConfig()
	c.Seed = 2
	d := MustGenerate(c)
	if a.TrainX.AllClose(d.TrainX, 0) {
		t.Fatal("different seeds must generate different data")
	}
}

func TestClassesBalanced(t *testing.T) {
	ds := MustGenerate(QuickConfig())
	counts := make([]int, ds.Cfg.Classes)
	for _, y := range ds.ValY {
		if y < 0 || y >= ds.Cfg.Classes {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	minC, maxC := counts[0], counts[0]
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Fatalf("class imbalance: min %d max %d", minC, maxC)
	}
}

func TestPixelsBoundedAndVaried(t *testing.T) {
	ds := MustGenerate(QuickConfig())
	var sum, sumSq float64
	for _, v := range ds.TrainX.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite pixel")
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(ds.TrainX.Len())
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.25 {
		t.Fatalf("pixel mean %.3f too far from 0", mean)
	}
	// The hardest classes run at ~3× base noise, so the aggregate std can
	// reach ~2× the base noise setting.
	if std < 0.3 || std > 3.0 {
		t.Fatalf("pixel std %.3f outside sane range", std)
	}
}

func TestClassSignalPresent(t *testing.T) {
	// Mean images of two classes in *different pairs* must differ much
	// more than two renderings of the same class — i.e. there is signal.
	cfg := QuickConfig()
	cfg.Noise = 0.2
	ds := MustGenerate(cfg)
	per := ds.TrainX.Len() / ds.TrainX.Dim(0)
	meanOf := func(class int) []float64 {
		m := make([]float64, per)
		n := 0
		for i, y := range ds.TrainY {
			if y != class {
				continue
			}
			for j := 0; j < per; j++ {
				m[j] += float64(ds.TrainX.Data()[i*per+j])
			}
			n++
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	m0, m2 := meanOf(0), meanOf(2) // different pairs
	m0b := meanOf(0)               // same computation, sanity
	if dist(m0, m0b) != 0 {
		t.Fatal("meanOf is not deterministic")
	}
	if dist(m0, m2) < 1e-3 {
		t.Fatal("class means indistinguishable: no learnable signal")
	}
}

func TestClassDifficultyGradient(t *testing.T) {
	// The generator gives higher class indices more noise (the mechanism
	// behind Fig 4(b)'s per-class spread). Verify per-class pixel variance
	// rises from class 0 to class Classes-1.
	ds := MustGenerate(QuickConfig())
	per := ds.TrainX.Len() / ds.TrainX.Dim(0)
	varOf := func(class int) float64 {
		var sum, sumSq float64
		n := 0
		for i, y := range ds.TrainY {
			if y != class {
				continue
			}
			for j := 0; j < per; j++ {
				v := float64(ds.TrainX.Data()[i*per+j])
				sum += v
				sumSq += v * v
				n++
			}
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	easy := varOf(0)
	hard := varOf(ds.Cfg.Classes - 1)
	if hard <= easy*1.2 {
		t.Fatalf("hard-class variance %.3f not clearly above easy-class %.3f", hard, easy)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Classes: 1, Size: 16, Channels: 3, TrainN: 10, ValN: 10},
		{Classes: 10, Size: 6, Channels: 3, TrainN: 10, ValN: 10},
		{Classes: 10, Size: 18, Channels: 3, TrainN: 100, ValN: 100}, // not /4
		{Classes: 10, Size: 16, Channels: 0, TrainN: 10, ValN: 10},
		{Classes: 10, Size: 16, Channels: 3, TrainN: 5, ValN: 10},
		{Classes: 10, Size: 16, Channels: 3, TrainN: 100, ValN: 100, Noise: -1},
	}
	for i, c := range bad {
		if _, err := Generate(c); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestBatchesCoverAllIndicesOnce(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 10 + int(seed%90)
		bs := 1 + int(seed%16)
		seen := make([]bool, n)
		total := 0
		for _, b := range Batches(rnd, n, bs) {
			if len(b) > bs || len(b) == 0 {
				return false
			}
			for _, i := range b {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherSelectsCorrectRows(t *testing.T) {
	x := tensor.New(4, 1, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	y := []int{0, 1, 2, 3}
	bx, by := Gather(x, y, []int{2, 0})
	if by[0] != 2 || by[1] != 0 {
		t.Fatalf("gathered labels %v, want [2 0]", by)
	}
	if bx.At(0, 0, 0, 0) != x.At(2, 0, 0, 0) || bx.At(1, 0, 0, 0) != x.At(0, 0, 0, 0) {
		t.Fatal("gathered rows mismatch")
	}
}
