// Package tensor implements a minimal dense float32 tensor library used by
// the neural-network substrate. Tensors are row-major and mutable; all
// operations are implemented with the standard library only.
//
// The package provides exactly what the dynamic-DNN reproduction needs:
// shaped storage, element access, element-wise arithmetic, im2col/col2im
// for convolution lowering, and a deterministic PRNG for reproducible
// initialisation and datasets.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is not usable;
// construct tensors with New or FromSlice.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is non-positive, mirroring make's behaviour for negative sizes.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
	t.strides = computeStrides(t.shape)
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly the number of elements implied
// by the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	t := &Tensor{shape: append([]int(nil), shape...), data: data}
	t.strides = computeStrides(t.shape)
	return t
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor's dimensions. The returned slice is shared;
// callers must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Index converts multi-dimensional indices to a flat offset. It panics on
// rank mismatch or out-of-range indices.
func (t *Tensor) Index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d (size %d)", ix, i, t.shape[i]))
		}
		off += ix * t.strides[i]
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.Index(idx...)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.Index(idx...)] = v }

// Reshape returns a view of the same data with a new shape. The element
// count must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return FromSlice(t.data, shape...)
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d != %d", len(src.data), len(t.data)))
	}
	copy(t.data, src.data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether all elements of t and o are within tol of each
// other. Shapes must match exactly.
//
//detlint:allow deadexport test helper that the nn, dataset and root packages' tests share with this package's
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i]-o.data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description: shape plus up to the first eight
// elements. Intended for debugging, not serialisation.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n < len(t.data) {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}

// Slice4D returns a copy of t[b0:b1, ...] along the first dimension of a
// rank-4 tensor (NCHW batch slicing). The copy owns its data.
func (t *Tensor) Slice4D(b0, b1 int) *Tensor {
	if t.Rank() != 4 {
		panic("tensor: Slice4D requires rank-4 tensor")
	}
	if b0 < 0 || b1 > t.shape[0] || b0 >= b1 {
		panic(fmt.Sprintf("tensor: Slice4D range [%d,%d) out of range for dim %d", b0, b1, t.shape[0]))
	}
	per := t.strides[0]
	out := New(b1-b0, t.shape[1], t.shape[2], t.shape[3])
	copy(out.data, t.data[b0*per:b1*per])
	return out
}

// Row returns a copy of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) []float32 {
	if t.Rank() != 2 {
		panic("tensor: Row requires rank-2 tensor")
	}
	cols := t.shape[1]
	out := make([]float32, cols)
	copy(out, t.data[i*cols:(i+1)*cols])
	return out
}
