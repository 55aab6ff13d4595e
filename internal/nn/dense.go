package nn

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/tensor"
)

// GroupedDense is the dynamic DNN's classifier head (the FC layer in
// Fig 3): logits = bias + Σ_{g<active} x_g · W_gᵀ, where x_g is group g's
// feature slice. The bias is shared and assigned to group 0, so it is
// trained in incremental step 1 and frozen afterwards; later groups learn
// additive refinements of the logits, which is what lets configurations be
// pruned to a group prefix with no retraining.
type GroupedDense struct {
	name         string
	groups       int
	active       int
	featPerGroup int
	classes      int

	w    []*Param // per group: (classes, featPerGroup)
	bias *Param   // (classes,), group 0

	lastX *tensor.Tensor
}

// NewGroupedDense constructs the head. featPerGroup is the flattened
// feature count each group contributes.
func NewGroupedDense(name string, groups, featPerGroup, classes int, rng *tensor.RNG) *GroupedDense {
	if groups < 1 {
		panic(fmt.Sprintf("nn: %s: groups must be >= 1", name))
	}
	l := &GroupedDense{
		name:         name,
		groups:       groups,
		active:       groups,
		featPerGroup: featPerGroup,
		classes:      classes,
	}
	for g := 0; g < groups; g++ {
		w := newParam(fmt.Sprintf("%s.g%d.w", name, g), g, classes, featPerGroup)
		w.Value.KaimingInit(rng, featPerGroup*groups)
		l.w = append(l.w, w)
	}
	l.bias = newParam(name+".b", 0, classes)
	return l
}

// Name implements Layer.
func (l *GroupedDense) Name() string { return l.name }

// SetActiveGroups implements Layer.
func (l *GroupedDense) SetActiveGroups(k int) {
	if k < 1 || k > l.groups {
		panic(fmt.Sprintf("nn: %s: active groups %d out of range [1,%d]", l.name, k, l.groups))
	}
	l.active = k
}

// Params implements Layer.
func (l *GroupedDense) Params() []*Param {
	ps := make([]*Param, 0, l.groups+1)
	for _, w := range l.w {
		ps = append(ps, w)
	}
	return append(ps, l.bias)
}

// Forward implements Layer. Input (N, active*featPerGroup); output
// (N, classes).
func (l *GroupedDense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s: input rank %d, want 2", l.name, x.Rank()))
	}
	wantF := l.active * l.featPerGroup
	if x.Dim(1) != wantF {
		panic(fmt.Sprintf("nn: %s: input features %d, want %d for %d active groups", l.name, x.Dim(1), wantF, l.active))
	}
	l.lastX = x
	n := x.Dim(0)
	out := tensor.New(n, l.classes)
	bd := l.bias.Value.Data()
	parallelFor(n, func(i int) {
		xi := x.Data()[i*wantF : (i+1)*wantF]
		oi := out.Data()[i*l.classes : (i+1)*l.classes]
		copy(oi, bd)
		for g := 0; g < l.active; g++ {
			xg := xi[g*l.featPerGroup : (g+1)*l.featPerGroup]
			wd := l.w[g].Value.Data()
			for c := 0; c < l.classes; c++ {
				wc := wd[c*l.featPerGroup : (c+1)*l.featPerGroup]
				var acc float32
				for t, xv := range xg {
					acc += xv * wc[t]
				}
				oi[c] += acc
			}
		}
	})
	return out
}

// Backward implements Layer.
func (l *GroupedDense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", l.name))
	}
	n := l.lastX.Dim(0)
	wantF := l.active * l.featPerGroup
	dx := tensor.New(n, wantF)

	// Sequential accumulation: the head is cheap relative to the convs.
	for i := 0; i < n; i++ {
		xi := l.lastX.Data()[i*wantF : (i+1)*wantF]
		di := dout.Data()[i*l.classes : (i+1)*l.classes]
		dxi := dx.Data()[i*wantF : (i+1)*wantF]
		if !l.bias.Frozen {
			bg := l.bias.Grad.Data()
			for c, dv := range di {
				bg[c] += dv
			}
		}
		for g := 0; g < l.active; g++ {
			xg := xi[g*l.featPerGroup : (g+1)*l.featPerGroup]
			dxg := dxi[g*l.featPerGroup : (g+1)*l.featPerGroup]
			wd := l.w[g].Value.Data()
			var wg []float32
			if !l.w[g].Frozen {
				wg = l.w[g].Grad.Data()
			}
			for c, dv := range di {
				if dv == 0 {
					continue
				}
				wc := wd[c*l.featPerGroup : (c+1)*l.featPerGroup]
				for t := range dxg {
					dxg[t] += dv * wc[t]
				}
				if wg != nil {
					wgc := wg[c*l.featPerGroup : (c+1)*l.featPerGroup]
					for t, xv := range xg {
						wgc[t] += dv * xv
					}
				}
			}
		}
	}
	return dx
}

// MACsPerGroup returns one group's multiply-accumulate count per inference.
func (l *GroupedDense) MACsPerGroup() int64 {
	return int64(l.classes) * int64(l.featPerGroup)
}

var _ Layer = (*GroupedDense)(nil)
