// Package experiments contains one driver per table and figure of the
// paper, plus three ablations. Each driver returns both
// structured results (for tests and benchmarks) and formatted tables or
// figure CSVs (for cmd/paperrepro, whose -quick -csv output
// cmd/paperrepro/testdata/quick_csv.golden pins).
//
// Index of experiments (E) and ablations (A):
//
//	E1 Table I        — Table1()
//	E2 Fig 1          — Fig1()
//	E3 Fig 2          — Fig2()
//	E4 Fig 3 training — TrainDynamic()
//	E5 Fig 4(a)       — Fig4a()
//	E6 Fig 4(b)       — part of TrainDynamic()
//	E7 Fig 4 budgets  — Fig4Budgets()
//	E8 Fig 5 loop     — Fig5()
//	A1 knob ablation  — AblationKnobs()
//	A2 switching      — AblationSwitching()
//	A3 no-RTM         — AblationNoRTM()
package experiments

import (
	"github.com/emlrtm/emlrtm/internal/dataset"
	"github.com/emlrtm/emlrtm/internal/dyndnn"
)

// Options selects the experiment scale.
type Options struct {
	// Quick selects reduced datasets/model sizes so the full suite runs in
	// seconds (used by tests); the default is paper scale.
	Quick bool
	// Seed drives every stochastic component.
	Seed uint64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// datasetConfig returns the synthetic-data configuration for the scale.
func (o Options) datasetConfig() dataset.Config {
	if o.Quick {
		c := dataset.QuickConfig()
		c.TrainN = 1500
		c.ValN = 800
		c.Seed = o.seed()
		return c
	}
	c := dataset.DefaultConfig()
	c.Seed = o.seed()
	return c
}

// modelConfig returns the dynamic-DNN configuration for the scale.
func (o Options) modelConfig() dyndnn.Config {
	if o.Quick {
		c := dyndnn.QuickConfig()
		c.Seed = o.seed() + 1
		return c
	}
	c := dyndnn.DefaultConfig()
	c.Seed = o.seed() + 1
	return c
}

// trainConfig returns the training recipe for the scale.
func (o Options) trainConfig() dyndnn.TrainConfig {
	if o.Quick {
		c := dyndnn.QuickTrainConfig()
		c.EpochsPerStep = 5
		c.Seed = o.seed() + 2
		c.Logf = o.Logf
		return c
	}
	c := dyndnn.DefaultTrainConfig()
	c.Seed = o.seed() + 2
	c.Logf = o.Logf
	return c
}
