package dyndnn

import (
	"fmt"
	"sort"

	"github.com/emlrtm/emlrtm/internal/tensor"
)

// Autoscaling: the paper lists *confidence* among the platform-independent
// monitors (Table I, Fig 5). This file turns it into a per-input policy:
// run the smallest configuration first and escalate through the nested
// configurations while the top-1 softmax confidence stays below a
// threshold. Unlike the big/little baseline (two separate models, full
// reload on escalation), escalation here reuses the same weights and adds
// only the incremental groups' compute.
type AutoScaler struct {
	Model *Model
	// Threshold is the confidence below which the scaler escalates.
	Threshold float64
	// StartLevel is the first configuration tried (default 1).
	StartLevel int
	// MaxLevel caps escalation (default: the model's top level).
	MaxLevel int
}

// NewAutoScaler builds a scaler with defaults filled in.
//
//detlint:allow deadexport ExampleNewAutoScaler documents the repo's one per-input model selector; the learned-tier review decides its fate
func NewAutoScaler(m *Model, threshold float64) *AutoScaler {
	return &AutoScaler{Model: m, Threshold: threshold, StartLevel: 1, MaxLevel: m.Levels()}
}

// Validate reports configuration errors.
func (a *AutoScaler) Validate() error {
	switch {
	case a.Model == nil:
		return fmt.Errorf("dyndnn: autoscaler without model")
	case a.Threshold < 0 || a.Threshold > 1:
		return fmt.Errorf("dyndnn: confidence threshold %f outside [0,1]", a.Threshold)
	case a.StartLevel < 1 || a.StartLevel > a.Model.Levels():
		return fmt.Errorf("dyndnn: start level %d out of range", a.StartLevel)
	case a.MaxLevel < a.StartLevel || a.MaxLevel > a.Model.Levels():
		return fmt.Errorf("dyndnn: max level %d out of range", a.MaxLevel)
	}
	return nil
}

// Decision records how one input was classified.
type Decision struct {
	Pred       int
	Level      int     // configuration that produced the final answer
	Confidence float64 // its top-1 softmax probability
	MACs       int64   // total compute spent, including escalations
}

// Classify runs the escalation policy on a single image (C,H,W tensor with
// a leading batch dim of 1).
func (a *AutoScaler) Classify(x *tensor.Tensor) (Decision, error) {
	if err := a.Validate(); err != nil {
		return Decision{}, err
	}
	if x.Dim(0) != 1 {
		return Decision{}, fmt.Errorf("dyndnn: Classify expects batch size 1, got %d", x.Dim(0))
	}
	saved := a.Model.Level()
	defer a.Model.SetLevel(saved)

	var d Decision
	for level := a.StartLevel; level <= a.MaxLevel; level++ {
		a.Model.SetLevel(level)
		logits := a.Model.Forward(x)
		probs := logits.Clone().SoftmaxRows()
		row := probs.Row(0)
		best, arg := row[0], 0
		for c, v := range row[1:] {
			if v > best {
				best, arg = v, c+1
			}
		}
		// Escalation re-runs the whole (larger) configuration; in a fused
		// implementation only the new groups would run, but counting the
		// full cost keeps the comparison against big/little conservative.
		d.MACs += a.Model.MACs(level)
		d.Pred = arg
		d.Level = level
		d.Confidence = float64(best)
		if d.Confidence >= a.Threshold {
			break
		}
	}
	return d, nil
}

// AutoScaleReport summarises the policy over a dataset slice.
type AutoScaleReport struct {
	N           int
	Accuracy    float64
	MeanMACs    float64
	MeanLevel   float64
	LevelCounts []int // decisions per final level (index level-1)
}

// Evaluate runs the policy over images x (N,C,H,W) with labels y and
// aggregates accuracy, compute and escalation statistics.
func (a *AutoScaler) Evaluate(x *tensor.Tensor, y []int) (AutoScaleReport, error) {
	if err := a.Validate(); err != nil {
		return AutoScaleReport{}, err
	}
	n := x.Dim(0)
	if n != len(y) {
		return AutoScaleReport{}, fmt.Errorf("dyndnn: %d images, %d labels", n, len(y))
	}
	rep := AutoScaleReport{N: n, LevelCounts: make([]int, a.Model.Levels())}
	correct := 0
	var macs, levels float64
	for i := 0; i < n; i++ {
		d, err := a.Classify(x.Slice4D(i, i+1))
		if err != nil {
			return AutoScaleReport{}, err
		}
		if d.Pred == y[i] {
			correct++
		}
		macs += float64(d.MACs)
		levels += float64(d.Level)
		rep.LevelCounts[d.Level-1]++
	}
	rep.Accuracy = float64(correct) / float64(n)
	rep.MeanMACs = macs / float64(n)
	rep.MeanLevel = levels / float64(n)
	return rep, nil
}

// ThresholdSweep evaluates the policy across thresholds and returns the
// (threshold, accuracy, mean MACs) frontier, sorted by threshold — the
// accuracy/compute trade-off curve the confidence knob exposes.
//
//detlint:allow deadexport ExampleNewAutoScaler documents the threshold sweep; the learned-tier review decides its fate
func (a *AutoScaler) ThresholdSweep(x *tensor.Tensor, y []int, thresholds []float64) ([]AutoScaleReport, error) {
	sorted := append([]float64(nil), thresholds...)
	sort.Float64s(sorted)
	out := make([]AutoScaleReport, 0, len(sorted))
	savedThreshold := a.Threshold
	defer func() { a.Threshold = savedThreshold }()
	for _, th := range sorted {
		a.Threshold = th
		rep, err := a.Evaluate(x, y)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
