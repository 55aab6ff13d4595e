package nn

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/tensor"
)

// lossOf runs a forward pass and returns a deterministic scalar "loss":
// the dot product of the network output with a fixed weighting tensor.
// Using a linear functional makes the analytic dL/d(output) trivial.
func lossOf(net *Network, x, weighting *tensor.Tensor) float64 {
	out := net.Forward(x, true)
	var s float64
	for i, v := range out.Data() {
		s += float64(v) * float64(weighting.Data()[i])
	}
	return s
}

// checkGradients verifies analytic gradients of every unfrozen parameter
// and of the input against central finite differences.
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, tol float64) {
	t.Helper()
	checkGradientsFrac(t, net, x, tol, 0)
}

// checkGradientsFrac is checkGradients with a tolerance for non-smooth
// points: nets containing ReLU/MaxPool are piecewise linear, and a finite
// difference that straddles a kink measures the average of two slopes while
// backprop reports one side. maxBadFrac bounds the fraction of sampled
// points allowed to disagree for that reason. Pure-linear nets must pass
// with maxBadFrac = 0.
func checkGradientsFrac(t *testing.T, net *Network, x *tensor.Tensor, tol, maxBadFrac float64) {
	t.Helper()
	out := net.Forward(x, true)
	weighting := tensor.New(out.Shape()...)
	weighting.FillNormal(tensor.NewRNG(99), 0, 1)

	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	net.Forward(x, true)
	dx := func() *tensor.Tensor {
		d := weighting.Clone()
		var grad *tensor.Tensor
		for i := len(net.Layers) - 1; i >= 0; i-- {
			d = net.Layers[i].Backward(d)
			grad = d
		}
		return grad
	}()

	// numericGrad estimates d(loss)/d(data[i]) with a central difference at
	// step h. ReLU masks and pool argmaxes make the loss piecewise linear;
	// if two step sizes disagree, the step crossed a kink and the point is
	// skipped (ok=false) rather than reported as a gradient bug.
	numericGrad := func(data []float32, i int) (g float64, ok bool) {
		est := func(h float32) float64 {
			orig := data[i]
			data[i] = orig + h
			lp := lossOf(net, x, weighting)
			data[i] = orig - h
			lm := lossOf(net, x, weighting)
			data[i] = orig
			return (lp - lm) / (2 * float64(h))
		}
		g1, g2 := est(1e-2), est(5e-3)
		if !closeEnough(g1, g2, 1e-2) {
			return 0, false
		}
		return g1, true
	}

	checked, bad := 0, 0
	var firstBad string

	report := func(where string, numeric, analytic float64) {
		checked++
		if !closeEnough(numeric, analytic, tol) {
			bad++
			if firstBad == "" {
				firstBad = where
			}
		}
	}

	// Parameter gradients.
	for _, p := range net.Params() {
		if p.Frozen {
			continue
		}
		data := p.Value.Data()
		grad := p.Grad.Data()
		stride := len(data)/7 + 1 // sample a subset of elements
		for i := 0; i < len(data); i += stride {
			numeric, ok := numericGrad(data, i)
			if !ok {
				continue
			}
			report(p.Name, numeric, float64(grad[i]))
		}
	}
	// Input gradients.
	data := x.Data()
	stride := len(data)/11 + 1
	for i := 0; i < len(data); i += stride {
		numeric, ok := numericGrad(data, i)
		if !ok {
			continue
		}
		report("input", numeric, float64(dx.Data()[i]))
	}

	if checked == 0 {
		t.Fatal("gradient check sampled zero smooth points")
	}
	if frac := float64(bad) / float64(checked); frac > maxBadFrac {
		t.Fatalf("gradient mismatches at %d/%d sampled points (first at %s), allowed fraction %.2f",
			bad, checked, firstBad, maxBadFrac)
	}
}

func closeEnough(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= tol*scale
}

func smallInput(n, c, h, w int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x
}

func TestGradCheckSharedInputConv(t *testing.T) {
	rng := tensor.NewRNG(1)
	conv := NewGroupedConv2D("c1", SharedInput, 2, 3,
		tensor.ConvGeom{InC: 2, InH: 6, InW: 6, Kernel: 3, Stride: 1, Pad: 1}, rng)
	net := NewNetwork(2, conv)
	checkGradients(t, net, smallInput(2, 2, 6, 6, 7), 2e-2)
}

func TestGradCheckDiagonalConv(t *testing.T) {
	rng := tensor.NewRNG(2)
	conv := NewGroupedConv2D("c2", Diagonal, 2, 3,
		tensor.ConvGeom{InC: 4, InH: 6, InW: 6, Kernel: 3, Stride: 1, Pad: 1}, rng)
	net := NewNetwork(2, conv)
	checkGradients(t, net, smallInput(2, 4, 6, 6, 8), 2e-2)
}

func TestGradCheckStridedConvNoPad(t *testing.T) {
	rng := tensor.NewRNG(3)
	conv := NewGroupedConv2D("c3", SharedInput, 1, 2,
		tensor.ConvGeom{InC: 3, InH: 7, InW: 7, Kernel: 3, Stride: 2, Pad: 0}, rng)
	net := NewNetwork(1, conv)
	checkGradients(t, net, smallInput(2, 3, 7, 7, 9), 2e-2)
}

func TestGradCheckGroupedDense(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := NewGroupedDense("fc", 3, 5, 4, rng)
	net := NewNetwork(3, d)
	x := tensor.New(3, 15)
	x.FillNormal(tensor.NewRNG(10), 0, 1)
	checkGradients(t, net, x, 2e-2)
}

func TestGradCheckFullStack(t *testing.T) {
	rng := tensor.NewRNG(6)
	// A miniature of the paper's dynamic CNN: shared-input conv, ReLU,
	// pool, diagonal conv, ReLU, pool, flatten, grouped dense.
	g := 2
	conv1 := NewGroupedConv2D("c1", SharedInput, g, 2,
		tensor.ConvGeom{InC: 1, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}, rng)
	conv2 := NewGroupedConv2D("c2", Diagonal, g, 2,
		tensor.ConvGeom{InC: 4, InH: 4, InW: 4, Kernel: 3, Stride: 1, Pad: 1}, rng)
	head := NewGroupedDense("fc", g, 2*2*2, 3, rng)
	net := NewNetwork(g,
		conv1, NewReLU("r1"), NewMaxPool2x2("p1"),
		conv2, NewReLU("r2"), NewMaxPool2x2("p2"),
		NewFlatten("fl"), head)
	checkGradientsFrac(t, net, smallInput(2, 1, 8, 8, 12), 5e-2, 0.10)
}

// ReLU and MaxPool gradients, checked strictly on inputs kept away from the
// non-smooth boundaries (|preactivation| and pool-window gaps > 0.1, far
// beyond the 1e-2 finite-difference step).
func TestGradCheckReLUAwayFromKinks(t *testing.T) {
	net := NewNetwork(0, NewReLU("r"))
	x := tensor.New(2, 3, 4, 4)
	r := tensor.NewRNG(40)
	for i := range x.Data() {
		v := float32(r.NormFloat64())
		if v >= 0 {
			v += 0.2
		} else {
			v -= 0.2
		}
		x.Data()[i] = v
	}
	checkGradients(t, net, x, 1e-2)
}

func TestGradCheckMaxPoolAwayFromTies(t *testing.T) {
	net := NewNetwork(0, NewMaxPool2x2("p"))
	x := tensor.New(1, 2, 4, 4)
	// Distinct values with gaps >> eps so the argmax never flips.
	for i := range x.Data() {
		x.Data()[i] = float32(i) * 0.5
	}
	checkGradients(t, net, x, 1e-2)
}

func TestGradCheckWithReducedActiveGroups(t *testing.T) {
	rng := tensor.NewRNG(7)
	g := 3
	conv1 := NewGroupedConv2D("c1", SharedInput, g, 2,
		tensor.ConvGeom{InC: 1, InH: 4, InW: 4, Kernel: 3, Stride: 1, Pad: 1}, rng)
	head := NewGroupedDense("fc", g, 2*4*4, 3, rng)
	net := NewNetwork(g, conv1, NewFlatten("fl"), head)
	net.SetActiveGroups(2)
	checkGradients(t, net, smallInput(2, 1, 4, 4, 13), 2e-2)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(8)
	logits := tensor.New(4, 5)
	logits.FillNormal(rng, 0, 2)
	labels := []int{0, 3, 2, 4}

	_, dl := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-2
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if !closeEnough(numeric, float64(dl.Data()[i]), 1e-2) {
			t.Fatalf("dlogits[%d]: numeric %.5f vs analytic %.5f", i, numeric, dl.Data()[i])
		}
	}
}
