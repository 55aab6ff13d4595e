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
// seed. Both are seeded with ^seed and draw prefix outputs, then are
// re-seeded with seed and draw n more, Uint64 and Int63 calls
// alternating throughout. A prefix on either side of rngTap re-seeds a
// source that is still deriving its words from the old seed or one whose
// state is whole, and the different old seed makes any word Seed fails to
// reset show, as GenerateRange re-seeds one source per scenario.
func checkSourceMatches(t *testing.T, seed int64, prefix, n int) {
	t.Helper()
	want := rand.NewSource(^seed).(rand.Source64)
	got := new(rngSource)
	got.Seed(^seed)
	draw := func(phase string, count int) {
		t.Helper()
		for i := range count {
			var w, g uint64
			if i%2 == 0 {
				w, g = want.Uint64(), got.Uint64()
			} else {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			}
			if w != g {
				t.Fatalf("seed %d, prefix %d: %s output #%d = %#x, math/rand gives %#x", seed, prefix, phase, i, g, w)
			}
		}
	}
	draw("prefix", prefix)
	want.Seed(seed)
	got.Seed(seed)
	draw("re-seeded", n)
}

// maxPrefix is the longest prefix TestSourceMatchesMathRand re-seeds
// after: past rngTap, so the lazy outputs' end is crossed from both sides.
const maxPrefix = 300

// TestSourceMatchesMathRand: the fork's outputs equal math/rand's, output
// for output, over the edge seeds re-seeded after every prefix length up
// to maxPrefix, and 3000 SplitMix64-derived seeds with prefixes spread
// over that range. 1500 outputs pass every word of the 607-word state
// through both the tap and the feed more than once.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		for prefix := range maxPrefix + 1 {
			checkSourceMatches(t, seed, prefix, 1500)
		}
	}
	for i := range uint64(3000) {
		checkSourceMatches(t, int64(splitmix64(i)), int(i%(maxPrefix+1)), 1500)
	}
}

// FuzzSourceMatchesMathRand: the fork agrees with math/rand for any seed,
// re-seeded after any prefix up to two state lengths.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		for _, prefix := range []uint16{0, rngTap - 1, rngTap, rngTap + 1} {
			f.Add(seed, prefix)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, prefix uint16) {
		checkSourceMatches(t, seed, int(prefix)%(2*rngLen), 1500)
	})
}
