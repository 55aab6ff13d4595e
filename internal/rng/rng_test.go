package rng

import "testing"

func TestRNGDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 10 {
		t.Fatal("zero-seeded RNG produced repeats in first 10 draws")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := New(8)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := New(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

// TestNextIsFirstDraw holds Next to the generator: from the state x, the
// 0 that New remaps and the top of the range included, Next(x) is the
// first value a generator in that state draws. The values for 0 and 1
// are SplitMix64's first outputs from those seeds in the reference C
// implementation.
func TestNextIsFirstDraw(t *testing.T) {
	for _, tc := range []struct{ x, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{^uint64(0), 0xe4d971771b652c20},
	} {
		r := RNG{state: tc.x}
		if next, draw := Next(tc.x), r.Uint64(); next != tc.want || draw != tc.want {
			t.Errorf("state %#x: Next gives %#x, the generator draws %#x, want %#x", tc.x, next, draw, tc.want)
		}
	}
}
