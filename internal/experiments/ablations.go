package experiments

import (
	"github.com/emlrtm/emlrtm/internal/baselines"
	"github.com/emlrtm/emlrtm/internal/dyndnn"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/pareto"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/trace"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// KnobSet labels a subset of the three knobs of Section IV.
type KnobSet struct {
	Name       string
	Points     []perf.OperatingPoint
	Stats      pareto.RangeStats
	Coverage   float64 // fraction of the budget grid satisfiable
	ParetoSize int
}

// AblationKnobsResult quantifies the paper's Section IV claim: combining
// the dynamic DNN with task mapping and DVFS "achieves a wider dynamic
// range of performance trade-off" than any knob alone.
type AblationKnobsResult struct {
	Sets  []KnobSet
	Table *trace.Table
}

// AblationKnobs builds the XU3 operating-point space under each knob
// subset and measures span, Pareto-front size and budget coverage.
func AblationKnobs(prof perf.ModelProfile) AblationKnobsResult {
	plat := hw.OdroidXU3()
	maxA15 := len(plat.Cluster("a15").OPPs) - 1
	full := prof.MaxLevel()

	latGrid := []float64{0.03, 0.06, 0.12, 0.25, 0.5, 1.0, 2.0}
	enGrid := []float64{20, 40, 80, 160, 320}

	fixOPP := func(pts []perf.OperatingPoint, idx int) []perf.OperatingPoint {
		var out []perf.OperatingPoint
		for _, p := range pts {
			if p.OPPIndex == idx {
				out = append(out, p)
			}
		}
		return out
	}

	sets := []struct {
		name string
		pts  []perf.OperatingPoint
	}{
		{"DVFS only (A15, 100% model)", perf.Enumerate(plat, prof,
			perf.EnumerateOptions{Clusters: []string{"a15"}, Levels: []int{full}})},
		{"model only (A15 @ max freq)", fixOPP(perf.Enumerate(plat, prof,
			perf.EnumerateOptions{Clusters: []string{"a15"}}), maxA15)},
		{"mapping only (100% model @ max freq)", append(
			fixOPP(perf.Enumerate(plat, prof, perf.EnumerateOptions{
				Clusters: []string{"a15"}, Levels: []int{full}, SweepCores: true}), maxA15),
			fixOPP(perf.Enumerate(plat, prof, perf.EnumerateOptions{
				Clusters: []string{"a7"}, Levels: []int{full}, SweepCores: true}),
				len(plat.Cluster("a7").OPPs)-1)...)},
		{"DVFS + model (A15)", perf.Enumerate(plat, prof,
			perf.EnumerateOptions{Clusters: []string{"a15"}})},
		{"all three knobs", perf.Enumerate(plat, prof,
			perf.EnumerateOptions{SweepCores: true})},
	}

	res := AblationKnobsResult{
		Table: trace.NewTable("A1 — knob-combination ablation (Odroid XU3)",
			"Knobs", "Points", "t span (ms)", "E span (mJ)", "Accuracy range", "Pareto size", "Budget coverage (%)"),
	}
	for _, s := range sets {
		st := pareto.Stats(s.pts)
		front := pareto.Frontier(s.pts, pareto.LatencyEnergyMetric)
		cov := pareto.SatisfiableFraction(s.pts, latGrid, enGrid)
		ks := KnobSet{Name: s.name, Points: s.pts, Stats: st, Coverage: cov, ParetoSize: len(front)}
		res.Sets = append(res.Sets, ks)
		res.Table.AddRow(s.name, len(s.pts), st.LatencySpan*1000, st.EnergySpan,
			st.MaxAccuracy-st.MinAccuracy, len(front), cov*100)
	}
	return res
}

// AblationSwitchingResult is the A2 comparison: one dynamic model vs a
// static model set vs big/little, on storage and switch cost (the Park et
// al. [20] argument of Section III-B).
type AblationSwitchingResult struct {
	DynamicBytes    int64
	StaticSetBytes  int64
	StaticSetModels int
	BigLittleBytes  int64
	DynamicSwitch   dyndnn.SwitchCost
	StaticSwitch    dyndnn.SwitchCost
	Table           *trace.Table
}

// AblationSwitching computes storage and switching costs for the three
// deployment strategies covering the XU3's hardware settings at a 250 ms
// budget.
func AblationSwitching(prof perf.ModelProfile) AblationSwitchingResult {
	plat := hw.OdroidXU3()
	set := baselines.BuildStaticSet(plat, prof, 0.250)
	bl := baselines.NewBigLittle(prof, 0.25)
	scm := dyndnn.DefaultSwitchCostModel()

	full := prof.Level(prof.MaxLevel())
	res := AblationSwitchingResult{
		DynamicBytes:    full.MemBytes,
		StaticSetBytes:  set.StorageBytes(),
		StaticSetModels: set.DistinctModels(),
		BigLittleBytes:  bl.StorageBytes(),
		DynamicSwitch:   scm.DynamicSwitch(1, prof.MaxLevel()),
		StaticSwitch:    scm.StaticSwitch(full.MemBytes),
	}
	res.Table = trace.NewTable("A2 — storage & switching: dynamic DNN vs static deployments",
		"Strategy", "Storage (KiB)", "Models", "Switch latency (ms)", "Switch energy (mJ)")
	res.Table.AddRow("dynamic DNN (this work)", float64(res.DynamicBytes)/1024, 1,
		res.DynamicSwitch.LatencyS*1000, res.DynamicSwitch.EnergyJ*1000)
	res.Table.AddRow("static per-setting set (NetAdapt-style)", float64(res.StaticSetBytes)/1024,
		res.StaticSetModels, res.StaticSwitch.LatencyS*1000, res.StaticSwitch.EnergyJ*1000)
	res.Table.AddRow("big/little (Park et al.)", float64(res.BigLittleBytes)/1024, 2,
		res.StaticSwitch.LatencyS*1000, res.StaticSwitch.EnergyJ*1000)
	return res
}

// AblationNoRTMResult is the A3 comparison on the Fig 2 scenario.
type AblationNoRTMResult struct {
	ManagedBad    float64 // miss+drop fraction across both DNNs
	BaselineBad   float64
	ManagedOverC  float64 // seconds above throttle
	BaselineOverC float64
	Table         *trace.Table
}

// AblationNoRTM runs the Fig 2 scenario with the manager and with an
// ondemand governor (static mapping, no model scaling) and compares
// deadline performance and thermal behaviour. Both runs see the
// scenario's hot-environment step at t = 18 s.
func AblationNoRTM(o Options) (AblationNoRTMResult, error) {
	s := workload.Fig2Scenario()

	_, _, mrep, err := workload.Run(s, hw.FlagshipSoC(), 0.25, o.Logf)
	if err != nil {
		return AblationNoRTMResult{}, err
	}

	be, err := governorRun(s, hw.FlagshipSoC(), 0.25)
	if err != nil {
		return AblationNoRTMResult{}, err
	}
	brep := be.Report()

	badOf := func(rep sim.Report) float64 {
		released, bad := 0, 0
		for _, a := range rep.Apps {
			if a.Kind != sim.KindDNN {
				continue
			}
			released += a.Released
			bad += a.Missed + a.Dropped
		}
		if released == 0 {
			return 0
		}
		return float64(bad) / float64(released)
	}

	res := AblationNoRTMResult{
		ManagedBad:    badOf(mrep),
		BaselineBad:   badOf(brep),
		ManagedOverC:  mrep.OverThrottleS,
		BaselineOverC: brep.OverThrottleS,
	}
	res.Table = trace.NewTable("A3 — RTM vs no-RTM on the Fig 2 scenario",
		"Controller", "Bad frames (%)", "Time above throttle (s)", "Max temp (C)", "Energy (mJ)")
	res.Table.AddRow("RTM", res.ManagedBad*100, mrep.OverThrottleS, mrep.MaxTempC, mrep.TotalEnergyMJ)
	res.Table.AddRow("ondemand governor", res.BaselineBad*100, brep.OverThrottleS, brep.MaxTempC, brep.TotalEnergyMJ)
	return res, nil
}
