// Package dataset generates a deterministic synthetic image-classification
// task standing in for CIFAR-10, which the paper uses but which is not
// available offline. The substitution is sound because the paper's claims
// concern the *relative* accuracy of the 25/50/75/100% dynamic-DNN
// configurations, so the dataset's job is to be (a) learnable by a small
// grouped CNN, (b) hard enough that accuracy rises with model capacity
// with diminishing returns, and (c) bit-reproducible.
//
// Construction: 10 classes arranged as 5 confusable pairs. Each pair
// shares a grating orientation (coarse cue, easy); the two classes within
// a pair differ in spatial frequency and a colour ramp (fine cues, hard).
// A low-capacity model learns the coarse cue and plateaus near the
// pair-resolution ceiling; added groups resolve the fine cues.
package dataset

import (
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

// Config parametrises generation. The zero value is not valid; use
// DefaultConfig or QuickConfig.
type Config struct {
	Classes  int     // number of classes (10 for the CIFAR-10 analogue)
	Size     int     // square image size in pixels (32 paper-scale)
	Channels int     // colour channels (3)
	TrainN   int     // training samples
	ValN     int     // validation samples
	Noise    float64 // additive Gaussian pixel noise σ
	Jitter   float64 // per-sample phase/translation jitter strength in [0,1]
	Seed     uint64
}

// DefaultConfig mirrors the paper's CIFAR-10 setting: 10 classes, 32×32×3,
// 10 000 validation images (Fig 4(b) evaluates on the 10k validation set).
func DefaultConfig() Config {
	return Config{
		Classes:  10,
		Size:     32,
		Channels: 3,
		TrainN:   8000,
		ValN:     10000,
		Noise:    1.2,
		Jitter:   1.0,
		Seed:     1,
	}
}

// QuickConfig is a reduced-size variant for unit tests and -short runs.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Size = 16
	c.TrainN = 1200
	c.ValN = 600
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: need >= 2 classes, got %d", c.Classes)
	case c.Size < 8 || c.Size%4 != 0:
		return fmt.Errorf("dataset: size must be >= 8 and divisible by 4, got %d", c.Size)
	case c.Channels < 1:
		return fmt.Errorf("dataset: need >= 1 channel, got %d", c.Channels)
	case c.TrainN < c.Classes || c.ValN < c.Classes:
		return fmt.Errorf("dataset: need at least one sample per class (train %d, val %d)", c.TrainN, c.ValN)
	case c.Noise < 0:
		return fmt.Errorf("dataset: negative noise %f", c.Noise)
	}
	return nil
}

// Dataset holds generated tensors. Images are NCHW float32, roughly
// zero-mean unit-range. Labels are class indices.
type Dataset struct {
	Cfg    Config
	TrainX *tensor.Tensor
	TrainY []int
	ValX   *tensor.Tensor
	ValY   []int
}

// Generate builds the dataset deterministically from cfg.Seed.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds := &Dataset{Cfg: cfg}
	rnd := rng.New(cfg.Seed)
	ds.TrainX, ds.TrainY = genSplit(cfg, rnd, cfg.TrainN)
	ds.ValX, ds.ValY = genSplit(cfg, rnd, cfg.ValN)
	return ds, nil
}

// MustGenerate is Generate that panics on configuration error; convenient
// in tests and examples where the config is a literal.
//
//detlint:allow deadexport test helper that the dyndnn and root packages' tests share with this package's
func MustGenerate(cfg Config) *Dataset {
	ds, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

func genSplit(cfg Config, rnd *rng.RNG, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, cfg.Channels, cfg.Size, cfg.Size)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % cfg.Classes // balanced classes
		y[i] = c
		renderSample(cfg, rnd, c, x.Data()[i*cfg.Channels*cfg.Size*cfg.Size:(i+1)*cfg.Channels*cfg.Size*cfg.Size])
	}
	return x, y
}

// renderSample draws one image of class c into dst (CHW layout).
func renderSample(cfg Config, rnd *rng.RNG, c int, dst []float32) {
	s := cfg.Size
	pair := c / 2   // 5 pairs: the coarse, easy cue
	within := c % 2 // fine cue distinguishing the pair members
	pairs := (cfg.Classes + 1) / 2

	// Coarse cue: grating orientation per pair.
	theta := math.Pi * float64(pair) / float64(pairs)
	ct, st := math.Cos(theta), math.Sin(theta)

	// Fine cue 1: spatial frequency differs within the pair. The gap is
	// deliberately small so resolving a pair needs filter capacity beyond
	// the coarse orientation detector.
	freq := 2.2
	if within == 1 {
		freq = 2.6
	}

	// Fine cue 2: colour ramp direction differs within the pair.
	rampSign := float64(1 - 2*within)

	// Per-class difficulty gradient: higher class indices get more noise
	// and weaker fine cues. This is what produces the per-class accuracy
	// spread reported as error bars in the paper's Fig 4(b), and it keeps
	// the capacity-accuracy curve gradual: small configurations solve the
	// easy classes, added groups recover progressively harder ones.
	difficulty := float64(c) / float64(cfg.Classes-1) // 0 (easy) .. 1 (hard)
	noiseScale := 0.5 + 2.5*difficulty
	fineScale := 1.0 - 0.85*difficulty

	// Per-sample nuisance parameters.
	phase := rnd.Float64() * 2 * math.Pi * cfg.Jitter
	dx := (rnd.Float64() - 0.5) * 0.35 * float64(s) * cfg.Jitter
	dy := (rnd.Float64() - 0.5) * 0.35 * float64(s) * cfg.Jitter
	amp := 0.7 + 0.6*rnd.Float64()
	// Occluding patch (cutout): zeroes a random square region, forcing
	// classifiers to use distributed evidence rather than one locus.
	occSize := int(float64(s) / 4 * cfg.Jitter)
	occX, occY := -1, -1
	if occSize > 0 {
		occX = rnd.Intn(s - occSize + 1)
		occY = rnd.Intn(s - occSize + 1)
	}

	inv := 1.0 / float64(s)
	for ch := 0; ch < cfg.Channels; ch++ {
		// Each channel sees the grating with a channel-dependent phase
		// offset plus the class-pair colour ramp.
		chPhase := float64(ch) * 0.9
		base := ch * s * s
		for yy := 0; yy < s; yy++ {
			for xx := 0; xx < s; xx++ {
				var val float64
				occluded := occSize > 0 && xx >= occX && xx < occX+occSize && yy >= occY && yy < occY+occSize
				if !occluded {
					u := (float64(xx) + dx) * inv
					v := (float64(yy) + dy) * inv
					g := amp * math.Sin(2*math.Pi*freq*(u*ct+v*st)+phase+chPhase)
					ramp := 0.3 * fineScale * rampSign * (u - v) * float64(ch+1) / float64(cfg.Channels)
					val = 0.6*g + ramp
				}
				noise := cfg.Noise * noiseScale * rnd.NormFloat64()
				dst[base+yy*s+xx] = float32(val + noise)
			}
		}
	}
}

// Batches returns shuffled mini-batch index slices covering [0,n) once.
// The shuffle is driven by rnd so training is reproducible.
func Batches(rnd *rng.RNG, n, batchSize int) [][]int {
	if batchSize <= 0 {
		panic("dataset: batchSize must be positive")
	}
	perm := rnd.Perm(n)
	var out [][]int
	for i := 0; i < n; i += batchSize {
		j := i + batchSize
		if j > n {
			j = n
		}
		out = append(out, perm[i:j])
	}
	return out
}

// Gather copies the rows of x (NCHW) selected by idx into a new batch
// tensor and returns the matching labels.
func Gather(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	per := x.Len() / x.Dim(0)
	shape := append([]int{len(idx)}, x.Shape()[1:]...)
	out := tensor.New(shape...)
	labels := make([]int, len(idx))
	for bi, si := range idx {
		copy(out.Data()[bi*per:(bi+1)*per], x.Data()[si*per:(si+1)*per])
		labels[bi] = y[si]
	}
	return out, labels
}
