package emlrtm

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (indexed in internal/experiments), plus the ablations, substrate
// micro-benchmarks and a fleet sweep to profile.
// Each experiment benchmark regenerates its artefact per iteration; run
//
//	go test -bench=. -benchmem
//
// to reproduce everything and record the wall cost of doing so. The
// experiment benchmarks log their table/figure summary under -v so a bench
// run doubles as a report.

import (
	"sync"
	"testing"

	"github.com/emlrtm/emlrtm/internal/dataset"
	"github.com/emlrtm/emlrtm/internal/dyndnn"
	"github.com/emlrtm/emlrtm/internal/experiments"
	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/nn"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/tensor"
)

var benchOpts = experiments.Options{Quick: true, Seed: 1}

// measure runs body once untimed, then b.N timed times. The untimed run
// keeps first-use set-up (pools, scratch growth) out of the numbers, so
// allocs/op at -benchtime 1x equal the steady state.
func measure(b *testing.B, body func()) {
	b.ReportAllocs()
	body()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// logArtefact logs a rendered artefact under -v.
func logArtefact(b *testing.B, what string) {
	if testing.Verbose() {
		b.Log(what)
	}
}

// BenchmarkTableI regenerates Table I (E1).
func BenchmarkTableI(b *testing.B) {
	var out string
	measure(b, func() {
		res := experiments.Table1(perf.PaperAccuracies[3])
		if res.MaxRelativeError() > 0.05 {
			b.Fatal("calibration drifted")
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// BenchmarkFig1 regenerates the design-time mapping of Fig 1 (E2).
func BenchmarkFig1(b *testing.B) {
	prof := perf.PaperReferenceProfile()
	var out string
	measure(b, func() {
		res := experiments.Fig1(prof)
		if len(res.Cells) != 9 {
			b.Fatal("wrong cell count")
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// BenchmarkFig2 runs the full Fig 2 runtime scenario (E3).
func BenchmarkFig2(b *testing.B) {
	var out string
	measure(b, func() {
		res, err := experiments.Fig2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CoLocated() {
			b.Fatal("scenario did not converge to NPU co-location")
		}
		out = res.Timeline.String()
	})
	logArtefact(b, out)
}

// trainedOnce caches one quick training run: Fig 3/4(b) benchmarks measure
// their own phase, and downstream benches reuse the measured profile.
var trainedOnce = sync.OnceValues(func() (experiments.TrainResult, error) {
	return experiments.TrainDynamic(benchOpts)
})

// BenchmarkFig3Train runs incremental training end to end (E4). Each
// iteration is a complete 4-step training on the quick-scale task.
func BenchmarkFig3Train(b *testing.B) {
	var out string
	measure(b, func() {
		res, err := experiments.TrainDynamic(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AccuracyMonotone() {
			b.Log("warning: accuracy not monotone this run")
		}
		out = res.Fig4b.String()
	})
	logArtefact(b, out)
}

// BenchmarkFig4b evaluates all four configurations of a trained model on
// the validation set (E6) — the Fig 4(b) measurement itself.
func BenchmarkFig4b(b *testing.B) {
	res, err := trainedOnce()
	if err != nil {
		b.Fatal(err)
	}
	// The validation split TrainDynamic generates at quick scale.
	cfg := dataset.QuickConfig()
	cfg.TrainN, cfg.ValN, cfg.Seed = 1500, 800, benchOpts.Seed
	ds := dataset.MustGenerate(cfg)
	measure(b, func() {
		if evals := res.Model.EvaluateAll(ds); len(evals) != res.Model.Levels() {
			b.Fatal("missing evals")
		}
	})
}

// BenchmarkFig4a enumerates the 116-point E/t space (E5).
func BenchmarkFig4a(b *testing.B) {
	prof := perf.PaperReferenceProfile()
	var out string
	measure(b, func() {
		res := experiments.Fig4a(prof)
		if len(res.Points) != 116 {
			b.Fatal("wrong point count")
		}
		out = res.Figure.CSV()
	})
	logArtefact(b, out)
}

// BenchmarkFig4Budgets answers the Section IV worked examples (E7).
func BenchmarkFig4Budgets(b *testing.B) {
	prof := perf.PaperReferenceProfile()
	var out string
	measure(b, func() {
		res := experiments.Fig4Budgets(prof)
		if !res.Cases[0].Feasible || !res.Cases[1].Feasible {
			b.Fatal("worked examples infeasible")
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// BenchmarkFig5Loop runs the closed-loop disturbance comparison (E8).
func BenchmarkFig5Loop(b *testing.B) {
	prof := perf.PaperReferenceProfile()
	var out string
	measure(b, func() {
		res, err := experiments.Fig5(prof, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		bad := func(a sim.AppInfo) float64 { return float64(a.Missed+a.Dropped) / float64(a.Released) }
		if bad(res.Managed) >= bad(res.Baseline) {
			b.Fatal("manager lost to governor")
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// BenchmarkAblationKnobs measures the knob-combination ranges (A1).
func BenchmarkAblationKnobs(b *testing.B) {
	prof := perf.PaperReferenceProfile()
	var out string
	measure(b, func() {
		res := experiments.AblationKnobs(prof)
		if len(res.Sets) != 5 {
			b.Fatal("wrong set count")
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// BenchmarkAblationSwitching compares storage/switch costs (A2).
func BenchmarkAblationSwitching(b *testing.B) {
	prof := perf.PaperReferenceProfile()
	var out string
	measure(b, func() {
		res := experiments.AblationSwitching(prof)
		if res.StaticSetBytes <= res.DynamicBytes {
			b.Fatal("baseline accounting broken")
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// BenchmarkAblationNoRTM compares RTM against a governor on Fig 2 (A3).
func BenchmarkAblationNoRTM(b *testing.B) {
	var out string
	measure(b, func() {
		res, err := experiments.AblationNoRTM(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		out = res.Table.String()
	})
	logArtefact(b, out)
}

// ---- Substrate micro-benchmarks ----

// BenchmarkIm2Col measures the convolution lowering.
func BenchmarkIm2Col(b *testing.B) {
	rnd := rng.New(2)
	g := tensor.ConvGeom{InC: 16, InH: 32, InW: 32, Kernel: 3, Stride: 1, Pad: 1}
	img := make([]float32, g.InC*g.InH*g.InW)
	for i := range img {
		img[i] = float32(rnd.NormFloat64())
	}
	cols := tensor.New(g.OutH()*g.OutW(), g.InC*g.Kernel*g.Kernel)
	measure(b, func() { tensor.Im2Col(img, g, cols) })
}

// BenchmarkInferenceByLevel measures one forward pass of the dynamic DNN
// at each configuration level — the compute-scaling the perf model relies
// on.
func BenchmarkInferenceByLevel(b *testing.B) {
	m := dyndnn.MustNew(dyndnn.QuickConfig())
	cfg := dataset.QuickConfig()
	cfg.TrainN, cfg.ValN = 10, 10
	ds := dataset.MustGenerate(cfg)
	x := ds.ValX.Slice4D(0, 8)
	for level := 1; level <= m.Levels(); level++ {
		level := level
		b.Run(m.LevelName(level), func(b *testing.B) {
			m.SetLevel(level)
			measure(b, func() { _ = m.Forward(x) })
		})
	}
}

// BenchmarkTrainingStep measures one SGD mini-batch step at full width.
func BenchmarkTrainingStep(b *testing.B) {
	m := dyndnn.MustNew(dyndnn.QuickConfig())
	cfg := dataset.QuickConfig()
	cfg.TrainN, cfg.ValN = 64, 10
	ds := dataset.MustGenerate(cfg)
	x := ds.TrainX.Slice4D(0, 32)
	y := ds.TrainY[:32]
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	measure(b, func() {
		logits := m.Net.Forward(x, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, y)
		m.Net.Backward(dl)
		opt.Step(m.Net.Params())
	})
}

// BenchmarkSimScenarioSecond measures simulator throughput: one simulated
// second of the Fig 2 workload per iteration (amortised).
func BenchmarkSimScenarioSecond(b *testing.B) {
	measure(b, func() {
		if _, err := experiments.Fig2(benchOpts); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFleetSweep runs a fleet mix on one worker: 64 workloads under
// each built-in policy, latencies dropped as a large fleet runs them.
// Profile where a fleet's time goes with
//
//	go test -run '^$' -bench FleetSweep -cpuprofile cpu.out .
func BenchmarkFleetSweep(b *testing.B) { benchFleetSweep(b, nil) }

// BenchmarkFleetSweepFlagship is BenchmarkFleetSweep on flagship-soc
// alone, whose runs carry ~6000 engine events each, so its profile is the
// engine's event loop (the bench harness's engine-bound workload):
//
//	go test -run '^$' -bench FleetSweepFlagship -cpuprofile cpu.out .
func BenchmarkFleetSweepFlagship(b *testing.B) { benchFleetSweep(b, []string{"flagship-soc"}) }

func benchFleetSweep(b *testing.B, platforms []string) {
	pols := []string{"heuristic", "maxaccuracy", "minenergy"}
	gen, err := fleet.NewGenerator(fleet.GeneratorConfig{Seed: 1, Platforms: platforms, Policies: pols})
	if err != nil {
		b.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(64))
	runner := &fleet.Runner{Workers: 1, DropLatencies: true}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, r := range runner.Run(scens) {
			if r.Err != "" {
				b.Fatalf("scenario %d: %s", r.ID, r.Err)
			}
		}
	}
}
