// Package nn is a from-scratch neural-network substrate supporting the
// paper's dynamic DNN: grouped convolutions with a prunable group-prefix
// structure, per-group parameter freezing for incremental training
// (Fig 3 of the paper), and plain SGD training — all on the stdlib only.
//
// Layers operate on NCHW float32 tensors. A network processes batches; the
// convolution layers parallelise across the batch internally because they
// dominate the runtime.
package nn

import (
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator. Group records
// which dynamic-DNN group the parameter belongs to (0-based); parameters
// that are not group-structured (e.g. a shared bias) use group 0 so they are
// trained in the first incremental step and frozen afterwards, exactly as
// the paper's shared classifier bias is.
type Param struct {
	Name   string
	Group  int
	Value  *tensor.Tensor
	Grad   *tensor.Tensor
	Frozen bool
}

func newParam(name string, group int, shape ...int) *Param {
	return &Param{
		Name:  name,
		Group: group,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElems returns the number of scalar parameters.
func (p *Param) NumElems() int { return p.Value.Len() }

// Layer is one stage of a sequential network. Forward consumes the previous
// activation and returns the next; Backward consumes dL/d(output) and
// returns dL/d(input), accumulating parameter gradients along the way.
//
// SetActiveGroups restricts group-structured layers to their first k groups
// (the paper's runtime pruning knob); layers without group structure ignore
// it. Layers must tolerate inputs whose channel count reflects the caller's
// current active-group setting.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	SetActiveGroups(k int)
}

// Network is a sequential container of layers.
type Network struct {
	Layers []Layer
	groups int // total dynamic groups (0 = not group-structured)
	active int
}

// NewNetwork builds a sequential network. groups is the dynamic-DNN group
// count G (4 in the paper); pass 0 for a conventional static network.
func NewNetwork(groups int, layers ...Layer) *Network {
	n := &Network{Layers: layers, groups: groups, active: groups}
	if groups == 0 {
		n.active = 0
	}
	return n
}

// ActiveGroups returns the currently enabled group count.
func (n *Network) ActiveGroups() int { return n.active }

// SetActiveGroups enables the first k of G groups in every layer: the
// runtime model-size knob. It panics for k outside [1, G], or any k != 0
// on a non-grouped network.
func (n *Network) SetActiveGroups(k int) {
	if n.groups == 0 {
		panic("nn: SetActiveGroups on a non-grouped network")
	}
	if k < 1 || k > n.groups {
		panic(fmt.Sprintf("nn: active groups %d out of range [1,%d]", k, n.groups))
	}
	n.active = k
	for _, l := range n.Layers {
		l.SetActiveGroups(k)
	}
}

// Forward runs the whole network on a batch.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dL/d(logits) through all layers.
func (n *Network) Backward(dout *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
}

// Params returns every parameter of every layer, in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// FreezeGroupsBelow freezes every parameter whose group index is < g and
// unfreezes the rest. Incremental step i of the paper calls
// FreezeGroupsBelow(i) before training group i.
func (n *Network) FreezeGroupsBelow(g int) {
	for _, p := range n.Params() {
		p.Frozen = p.Group < g
	}
}

// FreezeAll marks every parameter frozen (inference-only use).
func (n *Network) FreezeAll() {
	for _, p := range n.Params() {
		p.Frozen = true
	}
}

// NumParamsForGroups returns the scalar parameter count used when only the
// first k groups are active — the paper's "25% model uses one group of DNN
// parameters" accounting.
func (n *Network) NumParamsForGroups(k int) int {
	total := 0
	for _, p := range n.Params() {
		if p.Group < k {
			total += p.NumElems()
		}
	}
	return total
}

// ParamChecksum returns a cheap deterministic digest of all parameter
// values in groups < k. Tests use it to prove that enabling more groups
// (or training later groups) leaves earlier-group weights bit-identical —
// the paper's "no retraining" property.
func (n *Network) ParamChecksum(k int) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for _, p := range n.Params() {
		if p.Group >= k {
			continue
		}
		for _, v := range p.Value.Data() {
			h ^= uint64(math.Float32bits(v))
			h *= 1099511628211
		}
	}
	return h
}
