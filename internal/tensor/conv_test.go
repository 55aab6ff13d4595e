package tensor

import (
	"testing"
	"testing/quick"
)

func TestConvGeomOutputSize(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, Kernel: 3, Stride: 1, Pad: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-padding 3x3: out %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 5, InW: 5, Kernel: 3, Stride: 2, Pad: 0}
	if g2.OutH() != 2 || g2.OutW() != 2 {
		t.Fatalf("strided: out %dx%d, want 2x2", g2.OutH(), g2.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	cases := []struct {
		g  ConvGeom
		ok bool
	}{
		{ConvGeom{InC: 3, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}, true},
		{ConvGeom{InC: 0, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}, false},
		{ConvGeom{InC: 3, InH: 8, InW: 8, Kernel: 0, Stride: 1, Pad: 1}, false},
		{ConvGeom{InC: 3, InH: 8, InW: 8, Kernel: 3, Stride: 0, Pad: 1}, false},
		{ConvGeom{InC: 3, InH: 2, InW: 2, Kernel: 5, Stride: 1, Pad: 0}, false},
		{ConvGeom{InC: 3, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: -1}, false},
	}
	for i, c := range cases {
		err := c.g.Validate()
		if (err == nil) != c.ok {
			t.Fatalf("case %d: Validate() err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

// A direct (naive) convolution used as the reference implementation for the
// im2col path.
func convDirect(img []float32, g ConvGeom, w []float32, outC int) []float32 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float32, outC*outH*outW)
	k := g.Kernel
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var acc float32
				for ic := 0; ic < g.InC; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*g.Stride - g.Pad + ky
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*g.Stride - g.Pad + kx
							if ix < 0 || ix >= g.InW {
								continue
							}
							wIdx := ((oc*g.InC+ic)*k+ky)*k + kx
							acc += img[(ic*g.InH+iy)*g.InW+ix] * w[wIdx]
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out
}

func TestIm2ColMatMulMatchesDirectConv(t *testing.T) {
	r := NewRNG(11)
	g := ConvGeom{InC: 3, InH: 8, InW: 8, Kernel: 3, Stride: 1, Pad: 1}
	outC := 4
	img := make([]float32, g.InC*g.InH*g.InW)
	for i := range img {
		img[i] = float32(r.NormFloat64())
	}
	w := make([]float32, outC*g.InC*g.Kernel*g.Kernel)
	for i := range w {
		w[i] = float32(r.NormFloat64())
	}

	cols := New(g.OutH()*g.OutW(), g.InC*g.Kernel*g.Kernel)
	Im2Col(img, g, cols)
	wm := FromSlice(w, outC, g.InC*g.Kernel*g.Kernel)
	got := colsTimesWT(cols, wm) // (positions × outC)

	want := convDirect(img, g, w, outC)
	outHW := g.OutH() * g.OutW()
	for oc := 0; oc < outC; oc++ {
		for p := 0; p < outHW; p++ {
			gv := got.At(p, oc)
			wv := want[oc*outHW+p]
			if d := gv - wv; d > 1e-4 || d < -1e-4 {
				t.Fatalf("conv mismatch at oc=%d p=%d: im2col=%v direct=%v", oc, p, gv, wv)
			}
		}
	}
}

func TestIm2ColStridedNoPad(t *testing.T) {
	r := NewRNG(12)
	g := ConvGeom{InC: 2, InH: 7, InW: 7, Kernel: 3, Stride: 2, Pad: 0}
	outC := 3
	img := make([]float32, g.InC*g.InH*g.InW)
	for i := range img {
		img[i] = float32(r.NormFloat64())
	}
	w := make([]float32, outC*g.InC*g.Kernel*g.Kernel)
	for i := range w {
		w[i] = float32(r.NormFloat64())
	}
	cols := New(g.OutH()*g.OutW(), g.InC*g.Kernel*g.Kernel)
	Im2Col(img, g, cols)
	wm := FromSlice(w, outC, g.InC*g.Kernel*g.Kernel)
	got := colsTimesWT(cols, wm)
	want := convDirect(img, g, w, outC)
	outHW := g.OutH() * g.OutW()
	for oc := 0; oc < outC; oc++ {
		for p := 0; p < outHW; p++ {
			gv := got.At(p, oc)
			wv := want[oc*outHW+p]
			if d := gv - wv; d > 1e-4 || d < -1e-4 {
				t.Fatalf("strided conv mismatch at oc=%d p=%d", oc, p)
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col: <Im2Col(x), y> = <x, Col2Im(y)>
// for all x, y. This is exactly the property backprop relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		g := ConvGeom{
			InC:    1 + r.Intn(3),
			InH:    4 + r.Intn(5),
			InW:    4 + r.Intn(5),
			Kernel: 3,
			Stride: 1 + r.Intn(2),
			Pad:    r.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate geometry
		}
		n := g.InC * g.InH * g.InW
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		rows, colsN := g.OutH()*g.OutW(), g.InC*g.Kernel*g.Kernel
		y := New(rows, colsN)
		y.FillNormal(r, 0, 1)

		cx := New(rows, colsN)
		Im2Col(x, g, cx)
		var lhs float64
		for i := range cx.Data() {
			lhs += float64(cx.Data()[i]) * float64(y.Data()[i])
		}

		back := make([]float32, n)
		Col2Im(y, g, back)
		var rhs float64
		for i := range back {
			rhs += float64(back[i]) * float64(x[i])
		}
		d := lhs - rhs
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if l := lhs; l < 0 {
			scale = -l
		} else if l > 0 {
			scale = l
		}
		return d <= 1e-2*(1+scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPool2x2KnownValues(t *testing.T) {
	// Single channel 4x4.
	img := []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}
	out := make([]float32, 4)
	arg := make([]int, 4)
	oh, ow := MaxPool2x2(img, 1, 4, 4, out, arg)
	if oh != 2 || ow != 2 {
		t.Fatalf("out size %dx%d, want 2x2", oh, ow)
	}
	want := []float32{4, 8, 12, 16}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out[i], w)
		}
	}
	if img[arg[0]] != 4 || img[arg[3]] != 16 {
		t.Fatal("argmax indices must point at window maxima")
	}
}

func TestMaxPoolArgmaxWithinWindow(t *testing.T) {
	r := NewRNG(13)
	c, h, w := 3, 8, 8
	img := make([]float32, c*h*w)
	for i := range img {
		img[i] = float32(r.NormFloat64())
	}
	out := make([]float32, c*h/2*w/2)
	arg := make([]int, len(out))
	MaxPool2x2(img, c, h, w, out, arg)
	for i, a := range arg {
		if img[a] != out[i] {
			t.Fatalf("argmax %d does not hold pooled value", i)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 10 {
		t.Fatal("zero-seeded RNG produced repeats in first 10 draws")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(8)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestKaimingInitVariance(t *testing.T) {
	r := NewRNG(10)
	fanIn := 128
	x := New(64, fanIn)
	x.KaimingInit(r, fanIn)
	var sumSq float64
	for _, v := range x.Data() {
		sumSq += float64(v) * float64(v)
	}
	variance := sumSq / float64(x.Len())
	want := 2.0 / float64(fanIn)
	if variance < want*0.7 || variance > want*1.3 {
		t.Fatalf("Kaiming variance = %v, want ~%v", variance, want)
	}
}

// colsTimesWT returns cols·wmᵀ (positions × outC): the single matrix
// product an im2col-lowered convolution computes.
func colsTimesWT(cols, wm *Tensor) *Tensor {
	m, k, n := cols.Dim(0), cols.Dim(1), wm.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += cols.At(i, p) * wm.At(j, p)
			}
			out.Set(s, i, j)
		}
	}
	return out
}
