package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
// All fields use the same value for height and width (square kernels), which
// is all the reproduction's CNN requires.
type ConvGeom struct {
	InC, InH, InW int // input channels / spatial size
	Kernel        int // square kernel size
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.Kernel)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.Kernel)/g.Stride + 1 }

// Validate reports an error for geometries that would produce empty outputs
// or are otherwise malformed.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.Kernel <= 0 || g.Stride <= 0 || g.Pad < 0:
		return fmt.Errorf("tensor: conv geometry has invalid kernel/stride/pad %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2Col lowers one image (C,H,W laid out contiguously in img) into a matrix
// with one row per output position and one column per (channel, ky, kx)
// kernel tap: shape (OutH*OutW, C*K*K). Out-of-bounds taps (padding) read as
// zero. The result is written into cols, which must be pre-sized; it is
// returned for convenience.
//
// This lowering turns convolution into a single matrix product, the standard
// CPU-friendly strategy (and the one embedded inference runtimes such as
// CMSIS-NN and TFLite Micro use), so the FLOP counts the perf model derives
// from it match what a real deployment would execute.
func Im2Col(img []float32, g ConvGeom, cols *Tensor) *Tensor {
	outH, outW := g.OutH(), g.OutW()
	k := g.Kernel
	wantRows, wantCols := outH*outW, g.InC*k*k
	if cols.Rank() != 2 || cols.shape[0] != wantRows || cols.shape[1] != wantCols {
		panic(fmt.Sprintf("tensor: Im2Col target shape %v, want [%d %d]", cols.shape, wantRows, wantCols))
	}
	cd := cols.data
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			rowBase := (oy*outW + ox) * wantCols
			iy0 := oy*g.Stride - g.Pad
			ix0 := ox*g.Stride - g.Pad
			col := 0
			for c := 0; c < g.InC; c++ {
				chBase := c * g.InH * g.InW
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						for kx := 0; kx < k; kx++ {
							cd[rowBase+col] = 0
							col++
						}
						continue
					}
					rowOff := chBase + iy*g.InW
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= g.InW {
							cd[rowBase+col] = 0
						} else {
							cd[rowBase+col] = img[rowOff+ix]
						}
						col++
					}
				}
			}
		}
	}
	return cols
}

// Col2Im scatters the column-matrix gradient back into an image gradient,
// accumulating overlapping windows. It is the adjoint of Im2Col: dImg must
// be pre-zeroed by the caller if accumulation from zero is wanted.
func Col2Im(cols *Tensor, g ConvGeom, dImg []float32) {
	outH, outW := g.OutH(), g.OutW()
	k := g.Kernel
	wantCols := g.InC * k * k
	if cols.shape[0] != outH*outW || cols.shape[1] != wantCols {
		panic(fmt.Sprintf("tensor: Col2Im source shape %v, want [%d %d]", cols.shape, outH*outW, wantCols))
	}
	cd := cols.data
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			rowBase := (oy*outW + ox) * wantCols
			iy0 := oy*g.Stride - g.Pad
			ix0 := ox*g.Stride - g.Pad
			col := 0
			for c := 0; c < g.InC; c++ {
				chBase := c * g.InH * g.InW
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						col += k
						continue
					}
					rowOff := chBase + iy*g.InW
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix >= 0 && ix < g.InW {
							dImg[rowOff+ix] += cd[rowBase+col]
						}
						col++
					}
				}
			}
		}
	}
}

// MaxPool2x2 applies 2×2 max pooling with stride 2 to a single (C,H,W)
// image, writing the pooled output and the flat argmax index of each window
// (relative to the image) for use in the backward pass. H and W must be
// even. Returns the output spatial size.
func MaxPool2x2(img []float32, c, h, w int, out []float32, argmax []int) (outH, outW int) {
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2x2 requires even spatial dims, got %dx%d", h, w))
	}
	outH, outW = h/2, w/2
	for ch := 0; ch < c; ch++ {
		inBase := ch * h * w
		outBase := ch * outH * outW
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				iy, ix := oy*2, ox*2
				i00 := inBase + iy*w + ix
				i01 := i00 + 1
				i10 := i00 + w
				i11 := i10 + 1
				best, arg := img[i00], i00
				if img[i01] > best {
					best, arg = img[i01], i01
				}
				if img[i10] > best {
					best, arg = img[i10], i10
				}
				if img[i11] > best {
					best, arg = img[i11], i11
				}
				o := outBase + oy*outW + ox
				out[o] = best
				argmax[o] = arg
			}
		}
	}
	return outH, outW
}
