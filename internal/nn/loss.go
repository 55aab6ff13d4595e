package nn

import (
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits (N, classes) with integer labels, and the gradient dL/dlogits
// (already divided by N). It is the standard fused softmax+CE used for
// classification training.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic("nn: SoftmaxCrossEntropy requires rank-2 logits")
	}
	n, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	probs := logits.Clone().SoftmaxRows()
	dlogits = probs.Clone()
	invN := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		p := probs.At(i, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p)) * invN
		dlogits.Set(dlogits.At(i, y)-1, i, y)
	}
	dlogits.Scale(float32(invN))
	return loss, dlogits
}

// MeanConfidence returns the average top-1 softmax probability — the
// paper's platform-independent "confidence" monitor.
func MeanConfidence(logits *tensor.Tensor) float64 {
	probs := logits.Clone().SoftmaxRows()
	n := probs.Dim(0)
	var s float64
	for i := 0; i < n; i++ {
		row := probs.Row(i)
		best := row[0]
		for _, v := range row[1:] {
			if v > best {
				best = v
			}
		}
		s += float64(best)
	}
	return s / float64(n)
}

// MeanStd returns the mean and standard deviation of xs, ignoring NaNs.
func MeanStd(xs []float64) (mean, std float64) {
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		mean += x
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean /= float64(n)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(n))
	return mean, std
}
