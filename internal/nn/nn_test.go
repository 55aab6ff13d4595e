package nn

import (
	"testing"
	"testing/quick"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

// buildMiniDynNet constructs a small grouped network used across tests.
func buildMiniDynNet(groups int, seed uint64) *Network {
	rnd := rng.New(seed)
	conv1 := NewGroupedConv2D("c1", SharedInput, groups, 2,
		tensor.ConvGeom{InC: 1, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	conv2 := NewGroupedConv2D("c2", Diagonal, groups, 2,
		tensor.ConvGeom{InC: 2 * groups, InH: 4, InW: 4, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	head := NewGroupedDense("fc", groups, 2*2*2, 3, rnd)
	return NewNetwork(groups,
		conv1, NewReLU("r1"), NewMaxPool2x2("p1"),
		conv2, NewReLU("r2"), NewMaxPool2x2("p2"),
		NewFlatten("fl"), head)
}

func TestNetworkOutputShapes(t *testing.T) {
	net := buildMiniDynNet(4, 1)
	x := smallInput(3, 1, 8, 8, 2)
	for k := 1; k <= 4; k++ {
		net.SetActiveGroups(k)
		out := net.Forward(x, false)
		if out.Dim(0) != 3 || out.Dim(1) != 3 {
			t.Fatalf("k=%d: output shape %v, want (3,3)", k, out.Shape())
		}
	}
}

func TestSetActiveGroupsBounds(t *testing.T) {
	net := buildMiniDynNet(4, 1)
	for _, bad := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetActiveGroups(%d) must panic", bad)
				}
			}()
			net.SetActiveGroups(bad)
		}()
	}
}

func TestSetActiveGroupsOnStaticNetworkPanics(t *testing.T) {
	net := NewNetwork(0, NewReLU("r"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SetActiveGroups(1)
}

// The paper's key prunability property: the output with k active groups
// must not depend on any parameter of groups > k.
func TestPrunedOutputIndependentOfLaterGroups(t *testing.T) {
	net := buildMiniDynNet(4, 5)
	x := smallInput(2, 1, 8, 8, 6)
	for k := 1; k < 4; k++ {
		net.SetActiveGroups(k)
		before := net.Forward(x, false).Clone()

		// Scramble every parameter belonging to groups > k.
		scramble := rng.New(uint64(100 + k))
		for _, p := range net.Params() {
			if p.Group >= k {
				p.Value.FillNormal(scramble, 0, 10)
			}
		}
		after := net.Forward(x, false)
		if !before.AllClose(after, 0) {
			t.Fatalf("k=%d: output changed when groups > k were scrambled", k)
		}
		// Restore for next iteration by rebuilding deterministically.
		net = buildMiniDynNet(4, 5)
	}
}

// Adding a group changes logits only by an additive per-sample term
// composed of the new tower's contribution — i.e. removing it reproduces
// the smaller configuration exactly (runtime pruning needs no retraining).
func TestGroupContributionAdditivity(t *testing.T) {
	net := buildMiniDynNet(4, 7)
	x := smallInput(2, 1, 8, 8, 8)
	net.SetActiveGroups(4)
	full := net.Forward(x, false).Clone()
	net.SetActiveGroups(3)
	partial := net.Forward(x, false).Clone()

	// The difference must be exactly group 3's head contribution; verify
	// it is consistent across a repeated evaluation (deterministic) and
	// non-zero (group 3 genuinely participates).
	if full.AllClose(partial, 0) {
		t.Fatal("fourth group contributed nothing — group wiring broken")
	}
	net.SetActiveGroups(4)
	full2 := net.Forward(x, false)
	if !full.AllClose(full2, 0) {
		t.Fatal("forward is not deterministic")
	}
}

func TestFreezeGroupsBelow(t *testing.T) {
	net := buildMiniDynNet(4, 9)
	net.FreezeGroupsBelow(2)
	for _, p := range net.Params() {
		if p.Group < 2 && !p.Frozen {
			t.Fatalf("param %s (group %d) should be frozen", p.Name, p.Group)
		}
		if p.Group >= 2 && p.Frozen {
			t.Fatalf("param %s (group %d) should be trainable", p.Name, p.Group)
		}
	}
	net.FreezeAll()
	for _, p := range net.Params() {
		if !p.Frozen {
			t.Fatal("FreezeAll left a trainable param")
		}
	}
}

func TestFrozenParamsUntouchedBySGD(t *testing.T) {
	net := buildMiniDynNet(2, 10)
	x := smallInput(4, 1, 8, 8, 11)
	labels := []int{0, 1, 2, 0}

	net.FreezeGroupsBelow(1) // freeze group 0, train group 1
	sum0 := net.ParamChecksum(1)

	opt := NewSGD(0.05, 0.9, 1e-4)
	for step := 0; step < 5; step++ {
		net.SetActiveGroups(2)
		logits := net.Forward(x, true)
		_, dl := SoftmaxCrossEntropy(logits, labels)
		net.Backward(dl)
		opt.Step(net.Params())
	}
	if net.ParamChecksum(1) != sum0 {
		t.Fatal("training group 1 modified frozen group 0 weights")
	}
}

func TestSGDReducesLossOnTinyProblem(t *testing.T) {
	rnd := rng.New(12)
	net := NewNetwork(1, NewGroupedDense("d1", 1, 4, 16, rnd), NewReLU("r"), NewGroupedDense("d2", 1, 16, 3, rnd))
	// Three linearly separable clusters.
	n := 30
	x := tensor.New(n, 4)
	labels := make([]int, n)
	dataRNG := rng.New(13)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		for j := 0; j < 4; j++ {
			base := float32(0)
			if j == c {
				base = 3
			}
			x.Set(base+0.3*float32(dataRNG.NormFloat64()), i, j)
		}
	}
	opt := NewSGD(0.1, 0.9, 0)
	first, _ := SoftmaxCrossEntropy(net.Forward(x, true), labels)
	var last float64
	for step := 0; step < 60; step++ {
		logits := net.Forward(x, true)
		loss, dl := SoftmaxCrossEntropy(logits, labels)
		last = loss
		net.Backward(dl)
		opt.Step(net.Params())
	}
	if last >= first*0.5 {
		t.Fatalf("loss did not halve: first %.4f last %.4f", first, last)
	}
	correct := 0
	for i, p := range net.Forward(x, false).ArgMaxRow() {
		if p == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Fatalf("accuracy %.2f on trivially separable data", acc)
	}
}

func TestSGDMomentumAccelerates(t *testing.T) {
	// On a 1-D quadratic (loss = 0.5*w², grad = w), momentum must make
	// more progress than plain SGD at equal LR after a few steps.
	run := func(momentum float32) float32 {
		p := newParam("w", 0, 1)
		p.Value.Data()[0] = 1
		opt := NewSGD(0.05, momentum, 0)
		for i := 0; i < 20; i++ {
			p.Grad.Data()[0] = p.Value.Data()[0]
			opt.Step([]*Param{p})
		}
		v := p.Value.Data()[0]
		if v < 0 {
			v = -v
		}
		return v
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum did not accelerate convergence on a quadratic")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", 0, 1)
	p.Value.Data()[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // zero gradient: only decay acts
	if got := p.Value.Data()[0]; got >= 1 {
		t.Fatalf("weight decay failed to shrink: %v", got)
	}
}

func TestNumParamsForGroupsLinear(t *testing.T) {
	net := buildMiniDynNet(4, 14)
	total := 0
	for _, p := range net.Params() {
		total += p.NumElems()
	}
	p1 := net.NumParamsForGroups(1)
	p4 := net.NumParamsForGroups(4)
	if p4 != total {
		t.Fatalf("all-groups params %d != total %d", p4, total)
	}
	// Group 0 carries the shared bias, so p1 >= total/4; later groups are
	// equal-sized.
	delta21 := net.NumParamsForGroups(2) - p1
	delta32 := net.NumParamsForGroups(3) - net.NumParamsForGroups(2)
	if delta21 != delta32 {
		t.Fatalf("group sizes differ: +%d vs +%d", delta21, delta32)
	}
	if p1 <= 0 || p1 >= total {
		t.Fatalf("group-1 params %d out of range (total %d)", p1, total)
	}
}

func TestParamChecksumSensitivity(t *testing.T) {
	net := buildMiniDynNet(2, 15)
	sum := net.ParamChecksum(2)
	net.Params()[0].Value.Data()[0] += 1
	if net.ParamChecksum(2) == sum {
		t.Fatal("checksum did not change after weight mutation")
	}
}

func TestMeanConfidence(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		5, 0, 0,
		0, 5, 0,
		0, 0, 5,
		5, 0, 0,
	}, 4, 3)
	conf := MeanConfidence(logits)
	if conf < 0.8 || conf > 1 {
		t.Fatalf("confidence = %v for peaked logits", conf)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m)
	}
	if s < 1.11 || s > 1.12 {
		t.Fatalf("std = %v, want ~1.118", s)
	}
}

// Property: for any active-group setting, ReLU(x) >= 0 and pooling output
// max equals input window max (spot-checked through the full net: outputs
// are finite and deterministic).
func TestForwardDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		net := buildMiniDynNet(3, 21)
		x := smallInput(2, 1, 8, 8, seed)
		k := 1 + int(seed%3)
		net.SetActiveGroups(k)
		a := net.Forward(x, false).Clone()
		b := net.Forward(x, false)
		return a.AllClose(b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMACsAccounting(t *testing.T) {
	rnd := rng.New(30)
	conv := NewGroupedConv2D("c", Diagonal, 4, 8,
		tensor.ConvGeom{InC: 16, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	// Per group: out 8 channels × (4 in × 9 taps) × 64 positions.
	want := int64(8) * (4 * 9) * 64
	if got := conv.MACsPerGroup(); got != want {
		t.Fatalf("MACsPerGroup = %d, want %d", got, want)
	}
	d := NewGroupedDense("fc", 4, 32, 10, rnd)
	if got := d.MACsPerGroup(); got != 320 {
		t.Fatalf("dense MACsPerGroup = %d, want 320", got)
	}
}

func TestConvRejectsWrongChannelCount(t *testing.T) {
	rnd := rng.New(31)
	conv := NewGroupedConv2D("c", Diagonal, 2, 2,
		tensor.ConvGeom{InC: 4, InH: 4, InW: 4, Kernel: 3, Stride: 1, Pad: 1}, rnd)
	net := NewNetwork(2, conv)
	net.SetActiveGroups(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input channels")
		}
	}()
	net.Forward(smallInput(1, 3, 4, 4, 32), false) // 3 channels, want 4
}

func TestDiagonalConvRequiresDivisibleChannels(t *testing.T) {
	rnd := rng.New(33)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible channels")
		}
	}()
	NewGroupedConv2D("c", Diagonal, 3, 2,
		tensor.ConvGeom{InC: 4, InH: 4, InW: 4, Kernel: 3, Stride: 1, Pad: 1}, rnd)
}
