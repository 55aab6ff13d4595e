package dyndnn

import (
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/dataset"
	"github.com/emlrtm/emlrtm/internal/nn"
	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

// TrainConfig controls the incremental trainer.
type TrainConfig struct {
	EpochsPerStep int // training epochs for each incremental step
	BatchSize     int
	LR            float32
	LRDecay       float32 // multiplicative decay applied per epoch
	Momentum      float32
	WeightDecay   float32
	// Retries bounds divergence recovery: when a step ends with the new
	// configuration performing worse than the previous one (or barely
	// above chance for step 1), the group is restored to its initial
	// weights and retrained at LR/3. Narrow towers on hard data
	// occasionally diverge under momentum SGD; retrying at a lower rate
	// recovers them deterministically.
	Retries int
	Seed    uint64
	Logf    func(format string, args ...any) // optional progress sink
}

// DefaultTrainConfig returns the paper-scale training recipe.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		EpochsPerStep: 6,
		BatchSize:     32,
		LR:            0.03,
		LRDecay:       0.8,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		Retries:       3,
		Seed:          3,
	}
}

// QuickTrainConfig is a fast recipe for tests.
func QuickTrainConfig() TrainConfig {
	c := DefaultTrainConfig()
	c.EpochsPerStep = 2
	return c
}

// StepReport records the outcome of one incremental step (Fig 3(b)).
type StepReport struct {
	Step        int     // 1-based: step i trains group i-1
	FinalLoss   float64 // training loss at end of the step
	ValAccuracy float64 // validation top-1 with the first `Step` groups active
}

// TrainReport summarises an incremental training run.
type TrainReport struct {
	Steps []StepReport
}

// TrainIncremental runs the paper's incremental training procedure:
//
//	Step i: enable groups 1..i, freeze groups 1..i-1, ignore groups i+1..G,
//	        train group i on the classification loss.
//
// After step i completes, the weights of groups < i are verified
// bit-identical to their pre-step values (the property that makes runtime
// pruning free); a violation panics because it would invalidate every
// downstream experiment.
func (m *Model) TrainIncremental(ds *dataset.Dataset, tc TrainConfig) (*TrainReport, error) {
	if tc.EpochsPerStep < 1 || tc.BatchSize < 1 {
		return nil, fmt.Errorf("dyndnn: invalid train config %+v", tc)
	}
	if ds.Cfg.Size != m.Cfg.ImageSize || ds.Cfg.Channels != m.Cfg.InputChannels {
		return nil, fmt.Errorf("dyndnn: dataset %dx%dx%d does not match model input %dx%dx%d",
			ds.Cfg.Channels, ds.Cfg.Size, ds.Cfg.Size,
			m.Cfg.InputChannels, m.Cfg.ImageSize, m.Cfg.ImageSize)
	}
	logf := tc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rnd := rng.New(tc.Seed)
	report := &TrainReport{}

	prevAcc := 0.0
	for step := 1; step <= m.Cfg.Groups; step++ {
		m.Net.SetActiveGroups(step)
		m.Net.FreezeGroupsBelow(step - 1)
		pre := m.Net.ParamChecksum(step - 1)

		// Snapshot the step's trainable group so a diverged attempt can be
		// rolled back and retried at a lower learning rate.
		var snapVals []*tensor.Tensor
		for _, p := range m.Net.Params() {
			if p.Group == step-1 {
				snapVals = append(snapVals, p.Value.Clone())
			}
		}
		restore := func() {
			i := 0
			for _, p := range m.Net.Params() {
				if p.Group == step-1 {
					p.Value.CopyFrom(snapVals[i])
					p.ZeroGrad()
					i++
				}
			}
		}

		lr := tc.LR
		var lastLoss, acc float64
		for attempt := 0; ; attempt++ {
			opt := nn.NewSGD(lr, tc.Momentum, tc.WeightDecay)
			for epoch := 0; epoch < tc.EpochsPerStep; epoch++ {
				var epochLoss float64
				batches := dataset.Batches(rnd, ds.TrainX.Dim(0), tc.BatchSize)
				for _, idx := range batches {
					bx, by := dataset.Gather(ds.TrainX, ds.TrainY, idx)
					logits := m.Net.Forward(bx, true)
					loss, dl := nn.SoftmaxCrossEntropy(logits, by)
					epochLoss += loss * float64(len(idx))
					m.Net.Backward(dl)
					opt.Step(m.Net.Params())
				}
				lastLoss = epochLoss / float64(ds.TrainX.Dim(0))
				opt.LR *= tc.LRDecay
				logf("dyndnn: step %d epoch %d loss %.4f (lr %.4f)", step, epoch+1, lastLoss, lr)
			}
			acc = m.EvaluateLevel(ds, step).Accuracy
			if m.stepHealthy(step, acc, prevAcc) || attempt >= tc.Retries {
				if attempt > 0 {
					logf("dyndnn: step %d recovered on attempt %d (lr %.4f, acc %.1f%%)",
						step, attempt+1, lr, 100*acc)
				}
				break
			}
			logf("dyndnn: step %d attempt %d diverged (acc %.1f%%, prev %.1f%%); retrying at lr %.4f",
				step, attempt+1, 100*acc, 100*prevAcc, lr/3)
			restore()
			lr /= 3
		}

		if m.Net.ParamChecksum(step-1) != pre {
			panic(fmt.Sprintf("dyndnn: incremental step %d modified frozen groups — invariant broken", step))
		}

		logf("dyndnn: step %d done — %s model val accuracy %.1f%%", step, m.LevelName(step), 100*acc)
		report.Steps = append(report.Steps, StepReport{Step: step, FinalLoss: lastLoss, ValAccuracy: acc})
		prevAcc = acc
	}
	m.Net.FreezeAll()
	return report, nil
}

// stepHealthy decides whether an incremental step's outcome is acceptable:
// step 1 must clear 1.5× chance; later steps must not fall more than two
// points below the previous configuration (added capacity trained on the
// residual should never hurt).
func (m *Model) stepHealthy(step int, acc, prevAcc float64) bool {
	if step == 1 {
		return acc >= 1.5/float64(m.Cfg.Classes)
	}
	return acc >= prevAcc-0.02
}

// EvalResult holds the validation metrics of one configuration level —
// the platform-independent metrics of the paper's Table I and Fig 4(b).
type EvalResult struct {
	Level       int
	LevelName   string
	Accuracy    float64   // top-1 over the validation set
	PerClass    []float64 // top-1 per true class (error bars of Fig 4(b))
	ClassStd    float64   // std-dev across classes
	Confidence  float64   // mean top-1 softmax probability
	MACs        int64
	Params      int
	MemoryBytes int64
}

// EvaluateLevel computes validation metrics at the given level.
func (m *Model) EvaluateLevel(ds *dataset.Dataset, level int) EvalResult {
	saved := m.Level()
	defer m.SetLevel(saved)
	m.SetLevel(level)

	n := ds.ValX.Dim(0)
	const chunk = 256
	correct := 0
	perClassCorrect := make([]int, m.Cfg.Classes)
	perClassTotal := make([]int, m.Cfg.Classes)
	var confSum float64
	for i := 0; i < n; i += chunk {
		j := i + chunk
		if j > n {
			j = n
		}
		bx := ds.ValX.Slice4D(i, j)
		logits := m.Net.Forward(bx, false)
		pred := logits.ArgMaxRow()
		for bi, p := range pred {
			y := ds.ValY[i+bi]
			perClassTotal[y]++
			if p == y {
				correct++
				perClassCorrect[y]++
			}
		}
		confSum += nn.MeanConfidence(logits) * float64(j-i)
	}
	perClass := make([]float64, m.Cfg.Classes)
	for c := range perClass {
		if perClassTotal[c] == 0 {
			perClass[c] = math.NaN()
			continue
		}
		perClass[c] = float64(perClassCorrect[c]) / float64(perClassTotal[c])
	}
	_, std := nn.MeanStd(perClass)
	return EvalResult{
		Level:       level,
		LevelName:   m.LevelName(level),
		Accuracy:    float64(correct) / float64(n),
		PerClass:    perClass,
		ClassStd:    std,
		Confidence:  confSum / float64(n),
		MACs:        m.MACs(level),
		Params:      m.Params(level),
		MemoryBytes: m.MemoryBytes(level),
	}
}

// EvaluateAll evaluates every configuration level (Fig 4(b)).
func (m *Model) EvaluateAll(ds *dataset.Dataset) []EvalResult {
	out := make([]EvalResult, 0, m.Cfg.Groups)
	for level := 1; level <= m.Cfg.Groups; level++ {
		out = append(out, m.EvaluateLevel(ds, level))
	}
	return out
}
