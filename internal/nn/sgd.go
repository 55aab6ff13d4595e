package nn

import "github.com/emlrtm/emlrtm/internal/tensor"

// SGD is stochastic gradient descent with classical momentum and L2 weight
// decay. Frozen parameters are skipped entirely — their values AND their
// momentum state stay untouched, which is what guarantees the incremental
// trainer's bit-identical earlier groups.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs the optimiser.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every unfrozen parameter and zeroes all
// gradients (frozen ones included, so stale gradients never leak into a
// later unfreeze).
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Frozen {
			p.ZeroGrad()
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		g := p.Grad
		if s.WeightDecay != 0 {
			g.AddScaled(s.WeightDecay, p.Value)
		}
		// v = momentum*v - lr*g ; w += v
		v.Scale(s.Momentum).AddScaled(-s.LR, g)
		p.Value.Add(v)
		p.ZeroGrad()
	}
}
