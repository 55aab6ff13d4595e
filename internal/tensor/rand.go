package tensor

import (
	"math"

	"github.com/emlrtm/emlrtm/internal/rng"
)

// FillNormal fills t with normal values of the given mean and standard
// deviation.
func (t *Tensor) FillNormal(r *rng.RNG, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + std*float32(r.NormFloat64())
	}
}

// KaimingInit fills t with He-normal initialisation for a layer with the
// given fan-in, the standard choice for ReLU networks like the paper's CNN.
func (t *Tensor) KaimingInit(r *rng.RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	t.FillNormal(r, 0, std)
}
