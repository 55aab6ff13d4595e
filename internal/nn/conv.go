package nn

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

// ConvMode selects how a grouped convolution's groups connect to the input.
type ConvMode int

const (
	// SharedInput: every group reads the full input (used for the first
	// layer, whose input is the raw image shared by all groups).
	SharedInput ConvMode = iota
	// Diagonal: group g reads only input-channel group g (standard group
	// convolution, Fig 3(a) of the paper). Groups form independent towers,
	// which is what makes later groups prunable at runtime.
	Diagonal
)

// GroupedConv2D is a 2-D convolution whose output channels are divided into
// G groups that can be pruned to a prefix at runtime (the paper's group
// convolution pruning). Each group's weights are a separate Param so the
// incremental trainer can freeze earlier groups (Fig 3(b)).
type GroupedConv2D struct {
	name        string
	mode        ConvMode
	groups      int
	active      int
	outPerGroup int
	inPerGroup  int // Diagonal mode: input channels per group
	geom        tensor.ConvGeom

	w []*Param // per group: (outPerGroup, inCg*K*K)
	b []*Param // per group: (outPerGroup)

	// Cached for backward (valid for the most recent Forward call).
	lastX    *tensor.Tensor
	lastCols [][]*tensor.Tensor // [sample][group or 0(shared)]
}

// NewGroupedConv2D constructs the layer.
//
// geom.InC must be the full input channel count when all G groups are
// active: for SharedInput it is the raw input channel count (e.g. 3); for
// Diagonal it must be divisible by groups. outPerGroup is the number of
// output channels contributed by each group.
func NewGroupedConv2D(name string, mode ConvMode, groups, outPerGroup int, geom tensor.ConvGeom, rnd *rng.RNG) *GroupedConv2D {
	if groups < 1 {
		panic(fmt.Sprintf("nn: %s: groups must be >= 1", name))
	}
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	l := &GroupedConv2D{
		name:        name,
		mode:        mode,
		groups:      groups,
		active:      groups,
		outPerGroup: outPerGroup,
		geom:        geom,
	}
	switch mode {
	case SharedInput:
		l.inPerGroup = geom.InC
	case Diagonal:
		if geom.InC%groups != 0 {
			panic(fmt.Sprintf("nn: %s: input channels %d not divisible by %d groups", name, geom.InC, groups))
		}
		l.inPerGroup = geom.InC / groups
	default:
		panic("nn: unknown conv mode")
	}
	k := geom.Kernel
	fanIn := l.inPerGroup * k * k
	for g := 0; g < groups; g++ {
		w := newParam(fmt.Sprintf("%s.g%d.w", name, g), g, outPerGroup, fanIn)
		w.Value.KaimingInit(rnd, fanIn)
		b := newParam(fmt.Sprintf("%s.g%d.b", name, g), g, outPerGroup)
		l.w = append(l.w, w)
		l.b = append(l.b, b)
	}
	return l
}

// Name implements Layer.
func (l *GroupedConv2D) Name() string { return l.name }

// SetActiveGroups implements Layer.
func (l *GroupedConv2D) SetActiveGroups(k int) {
	if k < 1 || k > l.groups {
		panic(fmt.Sprintf("nn: %s: active groups %d out of range [1,%d]", l.name, k, l.groups))
	}
	l.active = k
}

// Params implements Layer.
func (l *GroupedConv2D) Params() []*Param {
	ps := make([]*Param, 0, 2*l.groups)
	for g := 0; g < l.groups; g++ {
		ps = append(ps, l.w[g], l.b[g])
	}
	return ps
}

// groupGeom returns the im2col geometry for one group's input slice.
func (l *GroupedConv2D) groupGeom() tensor.ConvGeom {
	g := l.geom
	g.InC = l.inPerGroup
	return g
}

// expectedInC returns the input channel count for the current active-group
// setting.
func (l *GroupedConv2D) expectedInC() int {
	if l.mode == SharedInput {
		return l.geom.InC
	}
	return l.active * l.inPerGroup
}

// Forward implements Layer. Input shape (N, inC, H, W) with inC matching
// the active-group setting; output (N, active*outPerGroup, outH, outW).
func (l *GroupedConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s: input rank %d, want 4", l.name, x.Rank()))
	}
	n, inC := x.Dim(0), x.Dim(1)
	if inC != l.expectedInC() {
		panic(fmt.Sprintf("nn: %s: input channels %d, want %d for %d active groups", l.name, inC, l.expectedInC(), l.active))
	}
	if x.Dim(2) != l.geom.InH || x.Dim(3) != l.geom.InW {
		panic(fmt.Sprintf("nn: %s: spatial %dx%d, want %dx%d", l.name, x.Dim(2), x.Dim(3), l.geom.InH, l.geom.InW))
	}
	gg := l.groupGeom()
	outH, outW := gg.OutH(), gg.OutW()
	outHW := outH * outW
	active := l.active
	out := tensor.New(n, active*l.outPerGroup, outH, outW)

	l.lastX = x
	l.lastCols = make([][]*tensor.Tensor, n)

	inHW := l.geom.InH * l.geom.InW
	fanIn := l.inPerGroup * l.geom.Kernel * l.geom.Kernel

	parallelFor(n, func(i int) {
		xi := x.Data()[i*inC*inHW : (i+1)*inC*inHW]
		oi := out.Data()[i*active*l.outPerGroup*outHW : (i+1)*active*l.outPerGroup*outHW]
		if l.mode == SharedInput {
			cols := tensor.New(outHW, fanIn)
			tensor.Im2Col(xi, gg, cols)
			l.lastCols[i] = []*tensor.Tensor{cols}
			for g := 0; g < active; g++ {
				l.convGroupForward(cols, g, oi[g*l.outPerGroup*outHW:(g+1)*l.outPerGroup*outHW], outHW)
			}
			return
		}
		l.lastCols[i] = make([]*tensor.Tensor, active)
		for g := 0; g < active; g++ {
			sub := xi[g*l.inPerGroup*inHW : (g+1)*l.inPerGroup*inHW]
			cols := tensor.New(outHW, fanIn)
			tensor.Im2Col(sub, gg, cols)
			l.lastCols[i][g] = cols
			l.convGroupForward(cols, g, oi[g*l.outPerGroup*outHW:(g+1)*l.outPerGroup*outHW], outHW)
		}
	})
	return out
}

// convGroupForward computes one group's output block: for each output
// channel c of the group, outBlock[c*outHW+p] = cols[p]·w[c] + b[c].
func (l *GroupedConv2D) convGroupForward(cols *tensor.Tensor, g int, outBlock []float32, outHW int) {
	w := l.w[g].Value
	b := l.b[g].Value.Data()
	fanIn := w.Dim(1)
	cd := cols.Data()
	wd := w.Data()
	for c := 0; c < l.outPerGroup; c++ {
		wc := wd[c*fanIn : (c+1)*fanIn]
		bias := b[c]
		for p := 0; p < outHW; p++ {
			row := cd[p*fanIn : (p+1)*fanIn]
			var acc float32
			for t, rv := range row {
				acc += rv * wc[t]
			}
			outBlock[c*outHW+p] = acc + bias
		}
	}
}

// Backward implements Layer. dout shape (N, active*outPerGroup, outH, outW);
// returns dX with the same shape as the forward input.
func (l *GroupedConv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", l.name))
	}
	n := l.lastX.Dim(0)
	inC := l.lastX.Dim(1)
	gg := l.groupGeom()
	outHW := gg.OutH() * gg.OutW()
	active := l.active
	fanIn := l.inPerGroup * l.geom.Kernel * l.geom.Kernel
	inHW := l.geom.InH * l.geom.InW

	dx := tensor.New(n, inC, l.geom.InH, l.geom.InW)

	// Per-worker gradient accumulators avoid a mutex in the hot loop; they
	// are reduced deterministically afterwards (sample order).
	type grads struct {
		dw []*tensor.Tensor
		db []*tensor.Tensor
	}
	perSample := make([]grads, n)

	parallelFor(n, func(i int) {
		di := dout.Data()[i*active*l.outPerGroup*outHW : (i+1)*active*l.outPerGroup*outHW]
		dxi := dx.Data()[i*inC*inHW : (i+1)*inC*inHW]
		gs := grads{
			dw: make([]*tensor.Tensor, active),
			db: make([]*tensor.Tensor, active),
		}
		// Shared dCols for SharedInput mode accumulates over groups.
		var sharedDCols *tensor.Tensor
		if l.mode == SharedInput {
			sharedDCols = tensor.New(outHW, fanIn)
		}
		for g := 0; g < active; g++ {
			var cols *tensor.Tensor
			if l.mode == SharedInput {
				cols = l.lastCols[i][0]
			} else {
				cols = l.lastCols[i][g]
			}
			dBlock := di[g*l.outPerGroup*outHW : (g+1)*l.outPerGroup*outHW]

			// Parameter gradients (skipped entirely for frozen groups).
			if !l.w[g].Frozen {
				dw := tensor.New(l.outPerGroup, fanIn)
				db := tensor.New(l.outPerGroup)
				cd := cols.Data()
				dwd := dw.Data()
				dbd := db.Data()
				for c := 0; c < l.outPerGroup; c++ {
					dwc := dwd[c*fanIn : (c+1)*fanIn]
					var bsum float32
					for p := 0; p < outHW; p++ {
						dv := dBlock[c*outHW+p]
						if dv == 0 {
							continue
						}
						bsum += dv
						row := cd[p*fanIn : (p+1)*fanIn]
						for t, rv := range row {
							dwc[t] += dv * rv
						}
					}
					dbd[c] = bsum
				}
				gs.dw[g] = dw
				gs.db[g] = db
			}

			// Input gradient: dCols = Dᵀ-expansion then Col2Im.
			dcols := sharedDCols
			if l.mode == Diagonal {
				dcols = tensor.New(outHW, fanIn)
			}
			wd := l.w[g].Value.Data()
			dcd := dcols.Data()
			for c := 0; c < l.outPerGroup; c++ {
				wc := wd[c*fanIn : (c+1)*fanIn]
				for p := 0; p < outHW; p++ {
					dv := dBlock[c*outHW+p]
					if dv == 0 {
						continue
					}
					row := dcd[p*fanIn : (p+1)*fanIn]
					for t, wv := range wc {
						row[t] += dv * wv
					}
				}
			}
			if l.mode == Diagonal {
				sub := dxi[g*l.inPerGroup*inHW : (g+1)*l.inPerGroup*inHW]
				tensor.Col2Im(dcols, gg, sub)
			}
		}
		if l.mode == SharedInput {
			tensor.Col2Im(sharedDCols, gg, dxi)
		}
		perSample[i] = gs
	})

	// Deterministic reduction.
	for i := 0; i < n; i++ {
		for g := 0; g < active; g++ {
			if perSample[i].dw[g] != nil {
				l.w[g].Grad.Add(perSample[i].dw[g])
				l.b[g].Grad.Add(perSample[i].db[g])
			}
		}
	}
	return dx
}

// MACsPerGroup returns the multiply-accumulate count contributed by a
// single group for one inference, the unit of the perf model's workload.
func (l *GroupedConv2D) MACsPerGroup() int64 {
	gg := l.groupGeom()
	fanIn := l.inPerGroup * l.geom.Kernel * l.geom.Kernel
	return int64(l.outPerGroup) * int64(fanIn) * int64(gg.OutH()) * int64(gg.OutW())
}

var _ Layer = (*GroupedConv2D)(nil)
