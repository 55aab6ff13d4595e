package tensor

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/rng"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", x.Rank())
	}
	if x.Len() != 24 {
		t.Fatalf("len = %d, want 24", x.Len())
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("dims = %v, want [2 3 4]", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	x.Set(9, 1, 1)
	if d[3] != 9 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major layout: (2,1) is offset 2*4+1 = 9.
	if x.Data()[9] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestReshapeIsView(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 2, 3)
	if x.At(1, 5) != 5 {
		t.Fatal("Reshape must alias the same data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Set(9, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestAddSubInverse(t *testing.T) {
	r := rng.New(1)
	x := New(4, 5)
	x.FillNormal(r, 0, 1)
	orig := x.Clone()
	o := New(4, 5)
	o.FillNormal(r, 0, 1)
	x.Add(o).AddScaled(-1, o)
	if !x.AllClose(orig, 1e-5) {
		t.Fatal("x+o-o should equal x")
	}
}

func TestScaleAddScaled(t *testing.T) {
	x := New(3)
	x.Fill(2)
	x.Scale(0.5)
	for _, v := range x.Data() {
		if v != 1 {
			t.Fatalf("Scale: got %v, want 1", v)
		}
	}
	y := New(3)
	y.Fill(1)
	x.AddScaled(3, y)
	for _, v := range x.Data() {
		if v != 4 {
			t.Fatalf("AddScaled: got %v, want 4", v)
		}
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	r := rng.New(7)
	x := New(8, 10)
	x.FillNormal(r, 0, 5)
	x.SoftmaxRows()
	for i := 0; i < 8; i++ {
		var s float64
		for j := 0; j < 10; j++ {
			v := x.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v, want 1", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	x.SoftmaxRows()
	for _, v := range x.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0, 5, 1, 9, 2, 3}, 2, 3)
	got := x.ArgMaxRow()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRow = %v, want [1 0]", got)
	}
}

func TestSlice4D(t *testing.T) {
	x := New(4, 2, 3, 3)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	y := x.Slice4D(1, 3)
	if y.Dim(0) != 2 {
		t.Fatalf("sliced batch = %d, want 2", y.Dim(0))
	}
	if y.At(0, 0, 0, 0) != x.At(1, 0, 0, 0) {
		t.Fatal("Slice4D must start at batch b0")
	}
	// Copies, not views.
	y.Set(-1, 0, 0, 0, 0)
	if x.At(1, 0, 0, 0) == -1 {
		t.Fatal("Slice4D must copy")
	}
}
