package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds exercise Seed's reduction: zero and its 89482311 stand-in,
// the modulus 2^31−1 and its neighbours, negatives that wrap, and the
// int64 extremes.
var edgeSeeds = []int64{0, 1, -1, int32max, -int32max, 1 << 31, 89482311, math.MinInt64, math.MaxInt64}

// checkSourceMatches compares the fork with math/rand's source for one
// seed: n Uint64 outputs, then, after reseeding both, n Int63 outputs.
// Reseeding the same values checks that Seed resets the whole state, as
// GenerateRange reseeds one source per scenario.
func checkSourceMatches(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := newSource(seed)
	for i := range n {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}
	want.Seed(seed)
	got.Seed(seed)
	for i := range n {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 #%d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand: the fork's outputs equal math/rand's, output
// for output, over the edge seeds and 3000 SplitMix64-derived ones. 1500
// outputs pass every word of the 607-word state through both the tap and
// the feed more than once.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkSourceMatches(t, seed, 1500)
	}
	for i := range uint64(3000) {
		checkSourceMatches(t, int64(splitmix64(i)), 1500)
	}
}

// FuzzSourceMatchesMathRand: the fork agrees with math/rand for any seed.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSourceMatches(t, seed, 1500)
	})
}
