package fleet

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/sim"
)

// distWorkloads is the number of workloads TestGenerateDistribution
// samples at each seed.
const distWorkloads = 4096

// moment collects samples of one parameter whose analytic mean and
// variance follow from how script draws it.
type moment struct {
	name     string
	mean, vr float64 // analytic mean and variance of one sample
	sum      float64
	n        int
	minN     int // fewer samples than this means the parameter went unsampled
}

func (m *moment) add(v float64) { m.sum += v; m.n++ }

// TestGenerateDistribution holds the sampled population to the
// distribution that generateOne and script are written to draw, over distWorkloads
// workloads at each of two seeds, every class and every platform:
//
//   - each class's and each platform's count lies within 4σ of n/k, σ
//     the binomial sqrt(n·(1/k)·(1−1/k));
//   - the sample mean of every drawn parameter lies within 4σ/sqrt(n) of
//     its analytic mean, σ² the analytic variance of one draw: the
//     duration, the DNN count, a churn DNN's start (as a fraction of the
//     run) and its stop (the share of the rest of the run it stays, and
//     how often it leaves at all), a burst's start and length (as
//     fractions of the run), and the utilisation of render, background
//     and burst load.
//
// Every bound is 4σ of a sum of independent draws, so a correct sampler
// fails it about once in 16 000 checks; a sampler that skews a share or a
// parameter by a few per cent of its spread fails it.
func TestGenerateDistribution(t *testing.T) {
	u := func(lo, hi float64) (float64, float64) { return (lo + hi) / 2, (hi - lo) * (hi - lo) / 12 }
	for _, seed := range []uint64{1, 2} {
		g, err := NewGenerator(GeneratorConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		scs := g.Generate(distWorkloads)
		var ms []*moment
		param := func(name string, mean, vr float64, minN int) *moment {
			m := &moment{name: name, mean: mean, vr: vr, minN: minN}
			ms = append(ms, m)
			return m
		}
		durMean, durVar := u(minDurationS, maxDurationS)
		dur := param("duration (s)", durMean, durVar, distWorkloads)
		dnns := param("DNN count", 2, 2.0/3, distWorkloads) // 1 + Intn(3)
		churnStart := param("churn start / run", 0.25, 0.5*0.5/12, 100)
		churnLeaves := param("churn DNN leaves", 0.5, 0.25, 100)
		m, v := u(0.3, 0.8)
		churnStay := param("churn stay / rest of run", m, v, 50)
		burstStart := param("burst start / run", 0.3, 0.6*0.6/12, 100)
		m, v = u(0.2, 0.5)
		burstLen := param("burst length / run", m, v, 100)
		m, v = u(0.3, 0.8)
		renderUtil := param("render util", m, v, 50)
		m, v = u(0.3, 0.9)
		bgUtil := param("background util", m, v, 100)
		m, v = u(0.6, 1.0)
		burstUtil := param("burst util", m, v, 100)

		counts := map[string]int{}
		for _, s := range scs {
			counts[string(s.Class)]++
			counts[s.Platform]++
			end := s.Script.EndS
			dur.add(end)
			n := 0
			for i, a := range s.Script.Apps {
				switch {
				case a.Kind == sim.KindDNN:
					n++
					if s.Class == ClassChurn && i > 0 {
						churnStart.add(a.StartS / end)
						leaves := 0.0
						if a.StopS > 0 {
							leaves = 1
							churnStay.add((a.StopS - a.StartS) / (end - a.StartS))
						}
						churnLeaves.add(leaves)
					}
				case a.Kind == sim.KindRender:
					renderUtil.add(a.Util)
				case s.Class == ClassBursty:
					burstStart.add(a.StartS / end)
					burstLen.add((a.StopS - a.StartS) / end)
					burstUtil.add(a.Util)
				default:
					bgUtil.add(a.Util)
				}
			}
			dnns.add(float64(n))
		}

		share := func(kind string, names []string) {
			t.Helper()
			p := 1 / float64(len(names))
			want := distWorkloads * p
			sigma := math.Sqrt(distWorkloads * p * (1 - p))
			for _, name := range names {
				c := counts[name]
				z := (float64(c) - want) / sigma
				t.Logf("seed %d: %s %-14s %4d  (%+.2fσ)", seed, kind, name, c, z)
				if math.Abs(z) > 4 {
					t.Errorf("seed %d: %s %s sampled %d times, want %.0f ± %.0f (4σ)", seed, kind, name, c, want, 4*sigma)
				}
			}
		}
		var classes []string
		for _, c := range AllClasses() {
			classes = append(classes, string(c))
		}
		share("class", classes)
		share("platform", g.platforms)

		for _, m := range ms {
			if m.n < m.minN {
				t.Errorf("seed %d: %s sampled %d times, want at least %d", seed, m.name, m.n, m.minN)
				continue
			}
			got := m.sum / float64(m.n)
			bound := 4 * math.Sqrt(m.vr/float64(m.n))
			t.Logf("seed %d: %-24s n=%5d mean %.4f  analytic %.4f ± %.4f (%+.2fσ)", seed, m.name, m.n, got, m.mean, bound, (got-m.mean)/bound*4)
			if math.Abs(got-m.mean) > bound {
				t.Errorf("seed %d: %s mean %.4f over %d draws, want %.4f ± %.4f (4σ)", seed, m.name, got, m.n, m.mean, bound)
			}
		}
	}
}
