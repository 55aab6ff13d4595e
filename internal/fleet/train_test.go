package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/rtm"
)

// refTrain is Train without replay: it simulates every sweep and every
// refinement run through trainOne, on one reused worker, with Train's
// exploration seeds and Observe order. It counts as replayed each
// refinement run whose decision trace equals that of an earlier run of
// its workload, and requires such a repeat to cost exactly what the
// earlier run cost: a run is a pure function of its decisions.
func refTrain(t *testing.T, cfg TrainConfig) ([]byte, TrainReport) {
	t.Helper()
	cfg = cfg.applied()
	gen, err := NewGenerator(GeneratorConfig{Seed: cfg.Seed, Platforms: cfg.Platforms, Classes: cfg.Classes})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := gen.Generate(cfg.Workloads)
	table := rtm.NewLearnedTable(cfg.Arms)
	rep := TrainReport{
		Workloads: len(scenarios),
		Arms:      append([]string(nil), cfg.Arms...),
		Sweep:     map[string]ArmTrainStats{},
	}
	w := &worker{}
	run := func(wl int, pick func(rtm.State) int) trainRun {
		r := trainOne(cfg, &scenarios[wl], pick, w)
		if r.err != nil {
			t.Fatalf("workload %d: %v", wl, r.err)
		}
		rep.Runs++
		return r
	}
	observe := func(r trainRun) {
		for _, vi := range r.visits {
			table.Observe(vi.state, vi.arm, r.cost)
		}
	}
	hist := make([][]trainRun, len(scenarios))
	for i := range len(scenarios) * len(cfg.Arms) {
		wl, arm := i/len(cfg.Arms), i%len(cfg.Arms)
		r := run(wl, func(rtm.State) int { return arm })
		observe(r)
		s := rep.Sweep[cfg.Arms[arm]]
		s.Runs++
		s.MeanCost += (r.cost - s.MeanCost) / float64(s.Runs)
		rep.Sweep[cfg.Arms[arm]] = s
		hist[wl] = append(hist[wl], r)
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		runs := make([]trainRun, len(scenarios))
		for wl := range scenarios {
			rnd := rng.New(rng.Next(rng.Next(cfg.Seed+uint64(epoch)) + uint64(wl)))
			runs[wl] = run(wl, func(s rtm.State) int {
				if arm := table.Greedy(s); arm >= 0 && rnd.Float64() >= cfg.Epsilon {
					return arm
				}
				return rnd.Intn(len(cfg.Arms))
			})
		}
		for wl, r := range runs {
			observe(r)
			for _, prev := range hist[wl] {
				if slices.Equal(prev.visits, r.visits) {
					rep.Replayed++
					if prev.cost != r.cost {
						t.Errorf("epoch %d workload %d: repeated trace cost %v, its earlier run %v", epoch, wl, r.cost, prev.cost)
					}
					break
				}
			}
			hist[wl] = append(hist[wl], r)
		}
	}
	table.Seed = cfg.Seed
	table.MissWeight, table.EnergyWeight = cfg.MissWeight, cfg.EnergyWeight
	table.Finalise()
	rep.States = len(table.States)
	raw, err := table.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw, rep
}

// TestTrainReplayMatchesFullSimulation holds Train, which credits a
// refinement run from a recorded run whenever its decisions would repeat
// that run, to refTrain, which simulates every run: the table bytes and
// the whole report must match, Replayed included, over greedy, mixed and
// fully random refinement at one and four workers.
func TestTrainReplayMatchesFullSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet")
	}
	mixed := false // some grid point both replays and simulates refinement runs
	for _, epochs := range []int{0, 1, 3} {
		for _, eps := range []float64{0, 0.1, 1} {
			cfg := TrainConfig{Seed: 7, Workloads: 12, Epochs: epochs, Epsilon: eps}
			wantRaw, wantRep := refTrain(t, cfg)
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("epochs=%d/eps=%g/workers=%d", epochs, eps, workers)
				cfg.Workers = workers
				table, rep, err := Train(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				raw, err := table.MarshalBytes()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(raw, wantRaw) {
					t.Errorf("%s: table differs from simulating every run", name)
				}
				if !reflect.DeepEqual(rep, wantRep) {
					t.Errorf("%s: report %+v, simulating every run %+v", name, rep, wantRep)
				}
				refine := epochs * cfg.Workloads
				t.Logf("%s: %d of %d refinement runs replayed", name, rep.Replayed, refine)
				mixed = mixed || rep.Replayed > 0 && rep.Replayed < refine
			}
		}
	}
	if !mixed {
		t.Error("no grid point both replays and simulates refinement runs")
	}
}

// TestTrainWorkCounts pins how many runs Train credits and how many of
// them it replays instead of simulating, for the test battery's config
// and for one round of the benchmark's train workload (512 odroid-xu3 and
// jetson-nano workloads, two epochs). A change that moves a count on
// purpose updates it here and says why.
func TestTrainWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet")
	}
	for _, tc := range []struct {
		name           string
		cfg            TrainConfig
		runs, replayed int
	}{
		{"trainCfg(7)", trainCfg(7), 12*3 + 12, 9},
		{"bench round", TrainConfig{Seed: 1 << 20, Workloads: 512, Platforms: []string{"odroid-xu3", "jetson-nano"}, Epochs: 2, Epsilon: 0.1}, 512*3 + 2*512, 667},
	} {
		_, rep, err := Train(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Runs != tc.runs || rep.Replayed != tc.replayed {
			t.Errorf("%s: %d runs, %d replayed; want %d, %d", tc.name, rep.Runs, rep.Replayed, tc.runs, tc.replayed)
		}
	}
}
