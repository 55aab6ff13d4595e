package fleet

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestLatencySummarySelectMatchesSort holds summarise's selection path,
// which a run takes when its latency runs are not kept, to the sorted
// path on random, all-equal, sorted, reversed, organ-pipe and tiny
// inputs: p95, mean and max must be equal, the kept runs must be the
// sorted samples, and each path may only permute the run's log, which
// no one reads after it. selectKth must also return the sorted value at
// every rank, also when it is allowed so few rounds that it falls back to
// sorting.
func TestLatencySummarySelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	inputs := map[string][]int64{"n=1": {7}, "n=2": {9, 3}, "n=2 equal": {4, 4}}
	for _, n := range []int{3, 19, 20, 21, 100, 257, 4096} {
		random, few, equal, sorted, reversed, pipe := make([]int64, n), make([]int64, n), make([]int64, n),
			make([]int64, n), make([]int64, n), make([]int64, n)
		for i := range n {
			random[i] = rng.Int64N(1e9)
			few[i] = rng.Int64N(3)
			equal[i] = 33_333_333
			sorted[i] = int64(i) * 1000
			reversed[i] = int64(n-i) * 1000
			pipe[i] = int64(min(i, n-1-i))
		}
		inputs[fmt.Sprint("random n=", n)] = random
		inputs[fmt.Sprint("three values n=", n)] = few
		inputs[fmt.Sprint("all equal n=", n)] = equal
		inputs[fmt.Sprint("sorted n=", n)] = sorted
		inputs[fmt.Sprint("reversed n=", n)] = reversed
		inputs[fmt.Sprint("organ pipe n=", n)] = pipe
	}
	for name, lat := range inputs {
		orig := slices.Clone(lat)
		ref := slices.Clone(lat)
		slices.Sort(ref)
		var sum int64
		for _, v := range ref {
			sum += v
		}
		var sel, kept Result
		selLat, keptLat := slices.Clone(lat), slices.Clone(lat)
		summarise(&sel, selLat, false)
		summarise(&kept, keptLat, true)
		for _, got := range [][]int64{selLat, keptLat} {
			if slices.Sort(got); !slices.Equal(got, ref) {
				t.Fatalf("%s: summarise changed the values of the run's latency log", name)
			}
		}
		type stats struct{ mean, max, p95 float64 }
		of := func(r Result) stats { return stats{r.MeanLatencyS, r.MaxLatencyS, r.P95LatencyS} }
		want := stats{
			mean: float64(sum) / 1e9 / float64(len(ref)),
			max:  float64(ref[len(ref)-1]) / 1e9,
			p95:  float64(ref[nearestRank(len(ref), 0.95)]) / 1e9,
		}
		if got := of(sel); got != want || sel.Latencies != nil {
			t.Errorf("%s: selection path %+v with %d runs, want %+v and none", name, got, len(sel.Latencies), want)
		}
		if got := of(kept); got != want || !slices.Equal(kept.Latencies, latencyRuns(ref)) {
			t.Errorf("%s: sorted path %+v, want %+v and the sorted runs", name, got, want)
		}
		if len(ref) > 300 {
			continue
		}
		for k := range ref {
			for _, rounds := range []int{0, 1, 2, 2 * bits.Len(uint(len(ref)))} {
				if got := selectKth(slices.Clone(orig), k, rounds); got != ref[k] {
					t.Fatalf("%s: selectKth(%d) in %d rounds = %d, want %d", name, k, rounds, got, ref[k])
				}
			}
		}
	}
}
