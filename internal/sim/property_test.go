package sim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rng"
)

// randomWorkload builds a structurally valid random workload on the XU3.
func randomWorkload(rnd *rng.RNG) []App {
	n := 1 + rnd.Intn(4)
	apps := make([]App, 0, n)
	coresLeft := map[string]int{"a15": 4, "a7": 4}
	clusters := []string{"a15", "a7"}
	for i := 0; i < n; i++ {
		cl := clusters[rnd.Intn(2)]
		if coresLeft[cl] == 0 {
			continue
		}
		cores := 1 + rnd.Intn(coresLeft[cl])
		coresLeft[cl] -= cores
		name := string(rune('a' + i))
		if rnd.Intn(2) == 0 {
			apps = append(apps, App{
				Name:       name,
				Kind:       KindDNN,
				Profile:    perf.PaperReferenceProfile(),
				Level:      1 + rnd.Intn(4),
				PeriodS:    0.1 + rnd.Float64(),
				ModelBytes: 350 << 10,
				StartS:     rnd.Float64() * 2,
				Placement:  Placement{Cluster: cl, Cores: cores},
			})
		} else {
			apps = append(apps, App{
				Name:      name,
				Kind:      KindBackground,
				Util:      0.1 + 0.9*rnd.Float64(),
				StartS:    rnd.Float64() * 2,
				Placement: Placement{Cluster: cl, Cores: cores},
			})
		}
	}
	if len(apps) == 0 {
		apps = append(apps, App{
			Name: "solo", Kind: KindBackground, Util: 0.5,
			Placement: Placement{Cluster: "a7", Cores: 1},
		})
	}
	return apps
}

// Property: for any random workload, total energy equals the sum of
// cluster energies, average power is within physical bounds, and app
// statistics are internally consistent: no app's mean latency exceeds the
// longest latency logged.
func TestSimConservationProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		e, err := New(Config{Platform: hw.OdroidXU3(), Apps: randomWorkload(rnd)})
		if err != nil {
			return false
		}
		if err := e.Run(5 + rnd.Float64()*5); err != nil {
			return false
		}
		rep := e.Report()

		// Energy conservation.
		plat := hw.OdroidXU3()
		var sum float64
		for _, c := range plat.Clusters {
			info, err := e.Cluster(c.Name)
			if err != nil {
				return false
			}
			sum += info.EnergyMJ
		}
		if math.Abs(sum-rep.TotalEnergyMJ) > 1e-6*(1+rep.TotalEnergyMJ) {
			return false
		}

		// Power bounds: at least the static floor, at most every cluster
		// flat out at max OPP.
		minP, maxP := 0.0, 0.0
		for _, c := range plat.Clusters {
			minP += c.IdlePowerMW()
			maxP += c.BusyPowerMW(c.MaxOPP(), c.Cores, 1)
		}
		if rep.AvgPowerMW < minP-1e-6 || rep.AvgPowerMW > maxP+1e-6 {
			return false
		}

		// Per-app counters: completed + dropped <= released; completed
		// latencies non-negative, and no mean above the longest.
		maxLat := 0.0
		for _, ns := range rep.LatenciesNS {
			maxLat = max(maxLat, float64(ns)/1e9)
		}
		for _, a := range rep.Apps {
			if a.Kind != KindDNN {
				continue
			}
			if a.Completed+a.Dropped > a.Released {
				return false
			}
			if a.Missed > a.Completed {
				return false
			}
			if a.AvgLatency < 0 || maxLat < a.AvgLatency-1e-9 {
				return false
			}
		}

		// Temperature stays within [ambient, steady-state at max power].
		if rep.MaxTempC < plat.AmbientC-1e-9 {
			return false
		}
		if rep.MaxTempC > plat.Thermal.SteadyStateC(plat.AmbientC, maxP/1000)+1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling the simulated duration of a steady workload at least
// doubles accumulated energy (monotone accounting, no resets).
func TestSimEnergyMonotoneInTime(t *testing.T) {
	run := func(dur float64) float64 {
		e, err := New(Config{
			Platform: hw.OdroidXU3(),
			Apps: []App{{
				Name: "bg", Kind: KindBackground, Util: 0.7,
				Placement: Placement{Cluster: "a15", Cores: 2},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(dur); err != nil {
			t.Fatal(err)
		}
		return e.Report().TotalEnergyMJ
	}
	e5, e10 := run(5), run(10)
	if e10 < 1.99*e5 || e10 > 2.01*e5 {
		t.Fatalf("steady workload energy not linear in time: %.1f vs %.1f", e5, e10)
	}
}

// Property: a DNN's completed-frame count never decreases when the cluster
// frequency rises (DVFS monotonicity at the QoS level).
func TestSimThroughputMonotoneInFrequency(t *testing.T) {
	run := func(oppIdx int) int {
		e, err := New(Config{
			Platform: hw.OdroidXU3(),
			Apps: []App{{
				Name: "d", Kind: KindDNN, Profile: perf.PaperReferenceProfile(),
				Level: 4, PeriodS: 0.2, ModelBytes: 350 << 10,
				Placement: Placement{Cluster: "a15", Cores: 4},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetOPP("a15", oppIdx); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			t.Fatal(err)
		}
		info, _ := e.App("d")
		return info.Completed
	}
	prev := -1
	for _, idx := range []int{0, 4, 8, 12, 16} {
		got := run(idx)
		if got < prev {
			t.Fatalf("completed frames fell from %d to %d as frequency rose", prev, got)
		}
		prev = got
	}
}
