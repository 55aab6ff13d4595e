package tensor

import (
	"fmt"
	"math"
)

// Add computes t += o element-wise. Shapes must match.
func (t *Tensor) Add(o *Tensor) *Tensor {
	mustSameLen(t, o, "Add")
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaled computes t += s*o, the AXPY primitive used by SGD.
func (t *Tensor) AddScaled(s float32, o *Tensor) *Tensor {
	mustSameLen(t, o, "AddScaled")
	for i := range t.data {
		t.data[i] += s * o.data[i]
	}
	return t
}

// ArgMaxRow returns, for each row of a rank-2 tensor, the column index of
// its maximum element. This is the top-1 decision used for accuracy.
func (t *Tensor) ArgMaxRow() []int {
	if t.Rank() != 2 {
		panic("tensor: ArgMaxRow requires rank-2 tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		best, arg := t.data[base], 0
		for c := 1; c < cols; c++ {
			if v := t.data[base+c]; v > best {
				best, arg = v, c
			}
		}
		out[r] = arg
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row of a rank-2
// tensor in place and returns t.
func (t *Tensor) SoftmaxRows() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: SoftmaxRows requires rank-2 tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[i] = e
			sum += float64(e)
		}
		inv := float32(1.0 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
	return t
}

func mustSameLen(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %v vs %v", op, a.shape, b.shape))
	}
}
