package sim

import "github.com/emlrtm/emlrtm/internal/perf"

// BenchApps is the flagship-SoC workload the engine, manager and policy
// benchmarks share: three mobile-vision DNN streams at different rates, a
// render app on the GPU and background load on the LITTLE cluster —
// enough event traffic that the engine's event slots, timers and refresh
// paths all run hot, and enough contention that planning is non-trivial.
// Each call returns a fresh slice.
func BenchApps() []App {
	prof := perf.MobileProfile()
	return []App{
		{Name: "dnn1", Kind: KindDNN, Profile: prof, Level: 4, PeriodS: 0.040,
			ModelBytes: 7 << 20, Placement: Placement{Cluster: "npu"}},
		{Name: "dnn2", Kind: KindDNN, Profile: prof, Level: 4, PeriodS: 1.0 / 60,
			ModelBytes: 7 << 20, Placement: Placement{Cluster: "cpu-big", Cores: 4}},
		{Name: "dnn3", Kind: KindDNN, Profile: prof, Level: 2, PeriodS: 0.100,
			ModelBytes: 7 << 20, Placement: Placement{Cluster: "cpu-lit", Cores: 2}},
		{Name: "vr", Kind: KindRender, Util: 0.6, Placement: Placement{Cluster: "gpu"}},
		{Name: "bg", Kind: KindBackground, Util: 0.4, Placement: Placement{Cluster: "cpu-lit", Cores: 1}},
	}
}
