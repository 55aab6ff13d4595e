// Package dyndnn implements the paper's primary application-side
// contribution: a dynamic DNN built with incremental training and group
// convolution pruning (Fig 3). One trained model contains G nested
// configurations — the paper's 25%, 50%, 75% and 100% models for G=4 —
// which can be switched at runtime with no retraining and no extra model
// storage, trading accuracy against computation (and therefore inference
// time and energy on a given platform).
package dyndnn

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/nn"
	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

// Config describes the dynamic CNN architecture.
type Config struct {
	Groups        int   // G: number of increments (4 in the paper)
	Classes       int   // output classes (10)
	ImageSize     int   // square input size; must be divisible by 8
	InputChannels int   // image channels (3)
	StageWidths   []int // output channels per group for each conv stage
	Seed          uint64
}

// DefaultConfig is the paper-scale model: 4 groups, 10 classes, 32×32×3
// input, three conv stages.
func DefaultConfig() Config {
	return Config{
		Groups:        4,
		Classes:       10,
		ImageSize:     32,
		InputChannels: 3,
		StageWidths:   []int{2, 4, 8},
		Seed:          7,
	}
}

// QuickConfig is a reduced model for tests: 16×16 input, narrower stages.
func QuickConfig() Config {
	c := DefaultConfig()
	c.ImageSize = 16
	c.StageWidths = []int{3, 6, 12}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Groups < 1:
		return fmt.Errorf("dyndnn: groups must be >= 1, got %d", c.Groups)
	case c.Classes < 2:
		return fmt.Errorf("dyndnn: classes must be >= 2, got %d", c.Classes)
	case c.ImageSize < 8 || c.ImageSize%8 != 0:
		return fmt.Errorf("dyndnn: image size must be >= 8 and divisible by 8, got %d", c.ImageSize)
	case c.InputChannels < 1:
		return fmt.Errorf("dyndnn: input channels must be >= 1, got %d", c.InputChannels)
	case len(c.StageWidths) != 3:
		return fmt.Errorf("dyndnn: want exactly 3 conv stages, got %d", len(c.StageWidths))
	}
	for i, w := range c.StageWidths {
		if w < 1 {
			return fmt.Errorf("dyndnn: stage %d width %d invalid", i, w)
		}
	}
	return nil
}

// Model is a trained (or trainable) dynamic DNN. The embedded network's
// active-group count selects the runtime configuration.
type Model struct {
	Cfg   Config
	Net   *nn.Network
	convs []*nn.GroupedConv2D
	head  *nn.GroupedDense
}

// New constructs an untrained dynamic DNN.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rnd := rng.New(cfg.Seed)
	s := cfg.ImageSize
	w := cfg.StageWidths
	g := cfg.Groups

	conv1 := nn.NewGroupedConv2D("conv1", nn.SharedInput, g, w[0],
		tensor.ConvGeom{InC: cfg.InputChannels, InH: s, InW: s, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	conv2 := nn.NewGroupedConv2D("conv2", nn.Diagonal, g, w[1],
		tensor.ConvGeom{InC: g * w[0], InH: s / 2, InW: s / 2, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	conv3 := nn.NewGroupedConv2D("conv3", nn.Diagonal, g, w[2],
		tensor.ConvGeom{InC: g * w[1], InH: s / 4, InW: s / 4, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	featPerGroup := w[2] * (s / 8) * (s / 8)
	head := nn.NewGroupedDense("fc", g, featPerGroup, cfg.Classes, rnd)

	net := nn.NewNetwork(g,
		conv1, nn.NewReLU("relu1"), nn.NewMaxPool2x2("pool1"),
		conv2, nn.NewReLU("relu2"), nn.NewMaxPool2x2("pool2"),
		conv3, nn.NewReLU("relu3"), nn.NewMaxPool2x2("pool3"),
		nn.NewFlatten("flatten"), head)

	return &Model{
		Cfg:   cfg,
		Net:   net,
		convs: []*nn.GroupedConv2D{conv1, conv2, conv3},
		head:  head,
	}, nil
}

// MustNew is New that panics on config error.
//
//detlint:allow deadexport helper that the root package's benchmarks share with this package's Example
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Levels returns the number of runtime configurations (== Groups).
func (m *Model) Levels() int { return m.Cfg.Groups }

// SetLevel selects runtime configuration level ∈ [1, Groups]: level k
// enables the first k groups. This is the paper's application knob; it is
// a pointer-bump operation — no weights move, no retraining happens.
func (m *Model) SetLevel(level int) { m.Net.SetActiveGroups(level) }

// Level returns the current configuration level.
func (m *Model) Level() int { return m.Net.ActiveGroups() }

// LevelName renders a level as the paper's percentage naming ("25%" for
// level 1 of 4).
func (m *Model) LevelName(level int) string {
	return fmt.Sprintf("%d%%", 100*level/m.Cfg.Groups)
}

// Forward runs inference on a batch at the current level.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.Net.Forward(x, false)
}

// MACs returns the multiply-accumulate count of one inference at the given
// level. Shared-input stages cost level × per-group MACs (every group reads
// the full input); diagonal stages and the head are also linear in level,
// so total compute scales ∝ level — the paper's "25% model requires the
// minimum computation" accounting.
func (m *Model) MACs(level int) int64 {
	if level < 1 || level > m.Cfg.Groups {
		panic(fmt.Sprintf("dyndnn: level %d out of range [1,%d]", level, m.Cfg.Groups))
	}
	var per int64
	for _, c := range m.convs {
		per += c.MACsPerGroup()
	}
	per += m.head.MACsPerGroup()
	return per * int64(level)
}

// Params returns the scalar parameter count used at the given level.
func (m *Model) Params(level int) int { return m.Net.NumParamsForGroups(level) }

// MemoryBytes returns the parameter storage for the given level at float32.
// The full dynamic model stores MemoryBytes(Groups) once and serves all
// levels from it — contrast with static multi-model deployment, which
// stores one model per operating point (see switchcost.go).
func (m *Model) MemoryBytes(level int) int64 { return int64(m.Params(level)) * 4 }
