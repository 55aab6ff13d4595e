package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64 core)
// used for weight initialisation and synthetic data. It is intentionally
// independent of math/rand so that datasets and initialisations are stable
// across Go releases, keeping experiment outputs reproducible bit-for-bit.
type RNG struct {
	state uint64
	// cached second normal variate from Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed. Seed 0 is remapped to a
// fixed non-zero constant so the zero value still produces a usable stream.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a pseudo-random permutation of [0,n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillNormal fills t with normal values of the given mean and standard
// deviation.
func (t *Tensor) FillNormal(r *RNG, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + std*float32(r.NormFloat64())
	}
}

// KaimingInit fills t with He-normal initialisation for a layer with the
// given fan-in, the standard choice for ReLU networks like the paper's CNN.
func (t *Tensor) KaimingInit(r *RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	t.FillNormal(r, 0, std)
}
