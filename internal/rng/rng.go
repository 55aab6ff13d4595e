// Package rng is the repo's one pseudo-random generator: a SplitMix64
// stream, independent of math/rand, so every dataset, weight
// initialisation, minibatch order and sampled fleet workload is stable
// across Go releases and reproducible bit for bit.
package rng

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64 core).
// Seeding is O(1): New sets one word of state.
type RNG struct {
	state uint64
	// cached second normal variate from Box-Muller
	hasSpare bool
	spare    float64
}

// New returns a generator seeded with seed. Seed 0 is remapped to a
// fixed non-zero constant so the zero value still produces a usable stream.
func New(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	z := Next(r.state)
	r.state += 0x9e3779b97f4a7c15
	return z
}

// Next returns the value a generator in state x returns next: the
// SplitMix64 step, which advances x by the golden-ratio increment and
// mixes it. It is the repo's one copy of that step; a seed derived from
// raw state calls it, since New remaps seed 0.
func Next(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
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
