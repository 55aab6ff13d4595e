package sim

import (
	"math"
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

func dnnApp(name, cluster string, cores, level int, periodS float64) App {
	return App{
		Name:       name,
		Kind:       KindDNN,
		Profile:    perf.PaperReferenceProfile(),
		Level:      level,
		PeriodS:    periodS,
		ModelBytes: 350 << 10,
		Placement:  Placement{Cluster: cluster, Cores: cores},
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleDNNLatencyMatchesPerfModel(t *testing.T) {
	plat := hw.OdroidXU3()
	e := mustEngine(t, Config{
		Platform: plat,
		Apps:     []App{dnnApp("dnn1", "a7", 4, 4, 1.0)},
	})
	// Raise the A7 to max frequency before running.
	if err := e.SetOPP("a7", len(plat.Cluster("a7").OPPs)-1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	info, err := e.App("dnn1")
	if err != nil {
		t.Fatal(err)
	}
	a7 := plat.Cluster("a7")
	want := perf.InferenceLatencyS(a7, a7.MaxOPP(), 4, perf.PaperReferenceProfile().Level(4).MACs)
	if info.Completed < 9 {
		t.Fatalf("completed %d jobs in 10s at 1 fps", info.Completed)
	}
	if math.Abs(info.AvgLatency-want)/want > 0.02 {
		t.Fatalf("sim latency %.1fms vs perf model %.1fms", info.AvgLatency*1000, want*1000)
	}
	if info.Missed != 0 || info.Dropped != 0 {
		t.Fatalf("unexpected misses/drops: %+v", info)
	}
}

func TestDeadlineMissesWhenPeriodTooTight(t *testing.T) {
	plat := hw.OdroidXU3()
	// 100% model on A7 at min frequency (200 MHz): latency ~1.78 s, but
	// period 0.5 s → continuous frame drops.
	e := mustEngine(t, Config{
		Platform: plat,
		Apps:     []App{dnnApp("dnn1", "a7", 4, 4, 0.5)},
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	info, _ := e.App("dnn1")
	if info.Dropped == 0 {
		t.Fatalf("expected frame drops at 200MHz with 0.5s period: %+v", info)
	}
}

func TestHigherOPPEliminatesMisses(t *testing.T) {
	plat := hw.OdroidXU3()
	run := func(oppIdx int) AppInfo {
		e := mustEngine(t, Config{
			Platform: plat,
			Apps:     []App{dnnApp("dnn1", "a15", 4, 4, 0.3)},
		})
		if err := e.SetOPP("a15", oppIdx); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(9); err != nil {
			t.Fatal(err)
		}
		info, _ := e.App("dnn1")
		return info
	}
	slow := run(0)                                 // 200 MHz: ~1 s latency
	fast := run(len(plat.Cluster("a15").OPPs) - 1) // 1.8 GHz: ~115 ms
	if slow.Dropped == 0 {
		t.Fatal("slow OPP should drop frames")
	}
	if fast.Dropped != 0 || fast.Missed != 0 {
		t.Fatalf("fast OPP should meet all deadlines: %+v", fast)
	}
}

func TestLevelKnobReducesLatency(t *testing.T) {
	plat := hw.OdroidXU3()
	run := func(level int) float64 {
		e := mustEngine(t, Config{
			Platform: plat,
			Apps:     []App{dnnApp("dnn1", "a15", 4, level, 1.0)},
		})
		if err := e.Run(5); err != nil {
			t.Fatal(err)
		}
		info, _ := e.App("dnn1")
		return info.AvgLatency
	}
	if !(run(1) < run(2) && run(2) < run(4)) {
		t.Fatal("latency must increase with model level")
	}
}

func TestSetLevelAppliesAndCounts(t *testing.T) {
	plat := hw.OdroidXU3()
	e := mustEngine(t, Config{
		Platform: plat,
		Apps:     []App{dnnApp("dnn1", "a15", 4, 4, 1.0)},
	})
	if err := e.SetLevel("dnn1", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.SetLevel("dnn1", 1); err != nil { // no-op
		t.Fatal(err)
	}
	if err := e.SetLevel("dnn1", 9); err == nil {
		t.Fatal("out-of-range level must error")
	}
	if err := e.SetLevel("missing", 1); err == nil {
		t.Fatal("unknown app must error")
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := e.Report().LevelSwaps; got != 1 {
		t.Fatalf("level swaps = %d, want 1", got)
	}
}

func TestMigrationChargesDowntime(t *testing.T) {
	plat := hw.OdroidXU3()
	type ctl struct{ migrated bool }
	c := &ctl{}
	ctrl := controllerFuncs{
		tick: func(e *Engine) {
			if !c.migrated && e.Now() >= 2 {
				if err := e.Migrate("dnn1", Placement{Cluster: "a7", Cores: 4}); err != nil {
					t.Errorf("migrate: %v", err)
				}
				c.migrated = true
			}
		},
	}
	e := mustEngine(t, Config{
		Platform:   plat,
		Apps:       []App{dnnApp("dnn1", "a15", 4, 4, 1.0)},
		Controller: ctrl,
		TickS:      0.5,
		LogEvents:  true,
	})
	if err := e.SetOPP("a15", 16); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOPP("a7", 11); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", rep.Migrations)
	}
	info, _ := e.App("dnn1")
	if info.Placement.Cluster != "a7" {
		t.Fatalf("app on %s, want a7", info.Placement.Cluster)
	}
	if info.Completed == 0 {
		t.Fatal("app must keep completing after migration")
	}
	found := false
	for _, ev := range rep.Events {
		if ev.Kind == EvMigrated && ev.App == "dnn1" {
			found = true
		}
	}
	if !found {
		t.Fatal("migration event missing from log")
	}
}

func TestMigrationCapacityChecks(t *testing.T) {
	plat := hw.OdroidXU3()
	e := mustEngine(t, Config{
		Platform: plat,
		Apps: []App{
			dnnApp("dnn1", "a15", 3, 4, 1.0),
			dnnApp("dnn2", "a7", 4, 4, 1.0),
		},
	})
	// Make both apps resident (simulate a short time).
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	// a15 has 3 cores used; dnn2 wants 4 → reject, 1 → accept.
	if err := e.Migrate("dnn2", Placement{Cluster: "a15", Cores: 4}); err == nil {
		t.Fatal("over-capacity migration must fail")
	}
	if err := e.Migrate("dnn2", Placement{Cluster: "a15", Cores: 1}); err != nil {
		t.Fatalf("fitting migration failed: %v", err)
	}
	if err := e.Migrate("dnn2", Placement{Cluster: "nope", Cores: 1}); err == nil {
		t.Fatal("unknown cluster must fail")
	}
}

func TestNPUMemoryConstraint(t *testing.T) {
	plat := hw.FlagshipSoC()
	npu := plat.Cluster("npu")
	// Two DNNs whose full models do NOT fit the NPU together, but whose
	// compressed levels do — the Fig 2(d) situation.
	a := dnnApp("dnn1", "npu", 1, 4, 0.1)
	b := dnnApp("dnn2", "cpu-big", 4, 4, 0.1)
	a.ModelBytes = npu.MemBytes * 3 / 4
	b.ModelBytes = npu.MemBytes * 3 / 4
	e := mustEngine(t, Config{Platform: plat, Apps: []App{a, b}})
	if err := e.Run(0.5); err != nil {
		t.Fatal(err)
	}
	// Full dnn2 cannot join the NPU.
	if err := e.Migrate("dnn2", Placement{Cluster: "npu"}); err == nil {
		t.Fatal("full models must not co-locate on NPU")
	}
	// Compress both to 50%: 3/8 + 3/8 <= 8/8 → fits.
	if err := e.SetLevel("dnn1", 2); err != nil {
		t.Fatal(err)
	}
	if err := e.SetLevel("dnn2", 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate("dnn2", Placement{Cluster: "npu"}); err != nil {
		t.Fatalf("compressed models must co-locate: %v", err)
	}
	// Growing dnn1 back to 100% must now be rejected (no memory).
	if err := e.SetLevel("dnn1", 4); err == nil {
		t.Fatal("level growth beyond NPU memory must fail")
	}
}

func TestAcceleratorSharingHalvesRate(t *testing.T) {
	plat := hw.FlagshipSoC()
	// One DNN alone on the NPU vs two co-located: per-app latency must
	// roughly double under sharing.
	solo := mustEngine(t, Config{
		Platform: plat,
		Apps:     []App{dnnApp("dnn1", "npu", 1, 4, 0.2)},
	})
	if err := solo.Run(5); err != nil {
		t.Fatal(err)
	}
	soloInfo, _ := solo.App("dnn1")

	duo := mustEngine(t, Config{
		Platform: plat,
		Apps: []App{
			dnnApp("dnn1", "npu", 1, 4, 0.2),
			dnnApp("dnn2", "npu", 1, 4, 0.2),
		},
	})
	if err := duo.Run(5); err != nil {
		t.Fatal(err)
	}
	duoInfo, _ := duo.App("dnn1")
	ratio := duoInfo.AvgLatency / soloInfo.AvgLatency
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("sharing ratio %.2f, want ~2", ratio)
	}
}

func TestRenderAppStealsGPUShare(t *testing.T) {
	plat := hw.FlagshipSoC()
	withRender := mustEngine(t, Config{
		Platform: plat,
		Apps: []App{
			dnnApp("dnn1", "gpu", 1, 4, 0.5),
			{Name: "vr", Kind: KindRender, Util: 0.6,
				Placement: Placement{Cluster: "gpu"}},
		},
	})
	if err := withRender.Run(5); err != nil {
		t.Fatal(err)
	}
	w, _ := withRender.App("dnn1")

	alone := mustEngine(t, Config{
		Platform: plat,
		Apps:     []App{dnnApp("dnn1", "gpu", 1, 4, 0.5)},
	})
	if err := alone.Run(5); err != nil {
		t.Fatal(err)
	}
	a, _ := alone.App("dnn1")
	// 60% of the GPU gone → DNN rate 40% → ~2.5× latency.
	ratio := w.AvgLatency / a.AvgLatency
	if ratio < 2.0 || ratio > 3.0 {
		t.Fatalf("render interference ratio %.2f, want ~2.5", ratio)
	}
}

func TestThermalAlarmFiresUnderSustainedLoad(t *testing.T) {
	plat := hw.FlagshipSoC() // throttle at 70C, Rth 8: >5.6W sustained trips
	e := mustEngine(t, Config{
		Platform: plat,
		Apps: []App{
			dnnApp("dnn1", "cpu-big", 4, 4, 0.01), // smaller period than latency: always busy
			{Name: "vr", Kind: KindRender, Util: 1.0, Placement: Placement{Cluster: "gpu"}},
			{Name: "bg", Kind: KindBackground, Util: 1.0, Placement: Placement{Cluster: "cpu-lit", Cores: 4}},
		},
		LogEvents: true,
	})
	// Max everything out.
	for _, c := range plat.Clusters {
		if err := e.SetOPP(c.Name, len(c.OPPs)-1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(60); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.MaxTempC <= plat.Thermal.ThrottleC {
		t.Fatalf("max temp %.1fC never exceeded throttle %.1fC", rep.MaxTempC, plat.Thermal.ThrottleC)
	}
	alarm := false
	for _, ev := range rep.Events {
		if ev.Kind == EvThermalAlarm {
			alarm = true
		}
	}
	if !alarm {
		t.Fatal("thermal alarm never fired")
	}
	if rep.OverThrottleS <= 0 {
		t.Fatal("over-throttle time not accounted")
	}
}

// TestThermalAccrualIsExact: under constant power every thermal step's
// average power is that power, so the steps follow the one closed-form
// trajectory: the peak temperature and the time spent above throttle
// must equal the closed form, and the alarm must fire at the first step
// boundary at or after the closed-form crossing — also when 1 ms no-op
// ticks cut the run into small segments.
func TestThermalAccrualIsExact(t *testing.T) {
	const endS = 30
	apps := []App{
		{Name: "vr", Kind: KindRender, Util: 1.0, Placement: Placement{Cluster: "gpu"}},
		{Name: "bg", Kind: KindBackground, Util: 1.0, Placement: Placement{Cluster: "cpu-lit", Cores: 4}},
	}
	plat := hw.FlagshipSoC()
	th := plat.Thermal
	build := func(tickS float64) *Engine {
		e := mustEngine(t, Config{Platform: plat, Apps: apps, Controller: &boundaryCtrl{}, TickS: tickS, LogEvents: true})
		for _, c := range plat.Clusters {
			if err := e.SetOPP(c.Name, len(c.OPPs)-1); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	// Both apps start at 0 and never change, so the power after the start
	// events is the power of the whole run. Pick the ambient that puts the
	// steady state 3 K above critical, so both trip points are crossed.
	probe := build(0)
	if err := probe.Run(1e-3); err != nil {
		t.Fatal(err)
	}
	powerW := totalPowerMW(probe) / 1000
	plat.AmbientC = th.CriticalC + 3 - th.RthKPerW*powerW
	if plat.AmbientC >= th.ThrottleC {
		t.Fatalf("load of %gW cannot cross throttle from ambient", powerW)
	}
	throttleS, ok1 := th.TimeToC(plat.AmbientC, powerW, plat.AmbientC, th.ThrottleC)
	criticalS, ok2 := th.TimeToC(plat.AmbientC, powerW, plat.AmbientC, th.CriticalC)
	if !ok1 || !ok2 || criticalS >= endS {
		t.Fatalf("trip points reached at %g, %v and %g, %v; the run must cross both", throttleS, ok1, criticalS, ok2)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for _, tickS := range []float64{0, 1e-3} {
		e := build(tickS)
		if err := e.Run(endS); err != nil {
			t.Fatal(err)
		}
		rep := e.Report()
		if want := th.TempAfterC(plat.AmbientC, powerW, plat.AmbientC, endS); !near(rep.MaxTempC, want) {
			t.Errorf("ticks %g: max temp %.12g, closed form %.12g", tickS, rep.MaxTempC, want)
		}
		if !near(rep.OverThrottleS, endS-throttleS) {
			t.Errorf("ticks %g: %.12gs above throttle, closed form %.12g", tickS, rep.OverThrottleS, endS-throttleS)
		}
		var alarms []float64
		for _, ev := range rep.Events {
			if ev.Kind == EvThermalAlarm {
				alarms = append(alarms, ev.TimeS)
			}
		}
		if want := math.Ceil(throttleS/thermalStepS) * thermalStepS; len(alarms) != 1 || alarms[0] != want {
			t.Errorf("ticks %g: alarms at %v, want one at %v, the first boundary after the crossing at %.12g",
				tickS, alarms, want, throttleS)
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	plat := hw.OdroidXU3()
	e := mustEngine(t, Config{
		Platform: plat,
		Apps: []App{
			dnnApp("dnn1", "a15", 2, 3, 0.5),
			{Name: "bg", Kind: KindBackground, Util: 0.5,
				Placement: Placement{Cluster: "a7", Cores: 2}},
		},
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	var sum float64
	for _, c := range plat.Clusters {
		info, err := e.Cluster(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		sum += info.EnergyMJ
	}
	if sum != rep.TotalEnergyMJ {
		t.Fatalf("energy conservation: clusters %.17g vs total %.17g", sum, rep.TotalEnergyMJ)
	}
	// Idle clusters still burn static power: total > 0 even with no work.
	idle := mustEngine(t, Config{Platform: hw.OdroidXU3(),
		Apps: []App{dnnApp("x", "a7", 1, 1, 100)}})
	if err := idle.Run(1); err != nil {
		t.Fatal(err)
	}
	if idle.Report().TotalEnergyMJ <= 0 {
		t.Fatal("static power must accrue energy")
	}
}

// TestControllerTicksAndEvents pins what reaches the controller: a tick
// per epoch and one callback per app start, deadline miss and frame drop,
// but none for a frame that finished on time. dnn1 meets every deadline;
// slow, on one little core at the lowest OPP, misses and drops frames.
func TestControllerTicksAndEvents(t *testing.T) {
	plat := hw.OdroidXU3()
	ticks := 0
	events := map[EventKind]int{}
	ctrl := controllerFuncs{
		tick:  func(e *Engine) { ticks++ },
		event: func(e *Engine, ev Event) { events[ev.Kind]++ },
	}
	e := mustEngine(t, Config{
		Platform:   plat,
		Apps:       []App{dnnApp("dnn1", "a15", 4, 1, 0.5), dnnApp("slow", "a7", 1, 4, 0.05)},
		Controller: ctrl,
		TickS:      1.0,
	})
	if err := e.SetOPP("a15", 16); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if ticks < 9 || ticks > 10 {
		t.Fatalf("ticks = %d, want ~10", ticks)
	}
	if events[EvAppStart] != 2 {
		t.Fatalf("app-start events = %d, want 2", events[EvAppStart])
	}
	var onTime, missed, dropped int
	for _, a := range e.Apps() {
		onTime += a.Completed - a.Missed
		missed += a.Missed
		dropped += a.Dropped
	}
	if onTime == 0 || missed == 0 || dropped == 0 {
		t.Fatalf("run too tame: %d on-time completions, %d misses, %d drops", onTime, missed, dropped)
	}
	if events[EvJobComplete] != 0 {
		t.Fatalf("%d of %d on-time completions delivered, want none", events[EvJobComplete], onTime)
	}
	if events[EvDeadlineMiss] != missed || events[EvFrameDrop] != dropped {
		t.Fatalf("delivered %d misses and %d drops, the apps counted %d and %d",
			events[EvDeadlineMiss], events[EvFrameDrop], missed, dropped)
	}
}

// TestLatencyLogMatchesEventLog runs the faulty, thermally loaded flagship
// run of TestEngineInvariants with both logs on: Report.Latencies must be
// the LatencyS of the event log's completions and misses, in order, bit
// for bit. The same run with only the latency log must keep the same
// samples and log no event, also after a Reset of an engine that logged
// events before.
func TestLatencyLogMatchesEventLog(t *testing.T) {
	run := func(e *Engine, logEvents bool) Report {
		t.Helper()
		cfg := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps(), Controller: &stressCtrl{done: map[float64]bool{}},
			TickS: 0.1, LogEvents: logEvents, LogLatencies: true}
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(16); err != nil {
			t.Fatal(err)
		}
		return e.Report()
	}
	e := &Engine{}
	both := run(e, true)
	var want []float64
	var misses int
	for _, ev := range both.Events {
		if ev.Kind == EvJobComplete || ev.Kind == EvDeadlineMiss {
			want = append(want, ev.LatencyS)
		}
		if ev.Kind == EvDeadlineMiss {
			misses++
		}
	}
	if misses == 0 || both.ClusterFails == 0 || both.OverThrottleS == 0 {
		t.Fatalf("run too tame: %d misses, %d faults, %gs above throttle", misses, both.ClusterFails, both.OverThrottleS)
	}
	same := func(got []float64) bool {
		return slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	if !same(both.Latencies) {
		t.Fatalf("%d latency samples differ from the event log's %d", len(both.Latencies), len(want))
	}
	only := run(e, false)
	if len(only.Events) != 0 {
		t.Fatalf("latency-only run logged %d events", len(only.Events))
	}
	if !same(only.Latencies) {
		t.Fatalf("latency-only run kept %d samples that differ from the %d of the run with both logs", len(only.Latencies), len(want))
	}
}

func TestAppLifetimeWindow(t *testing.T) {
	plat := hw.OdroidXU3()
	app := dnnApp("dnn1", "a15", 4, 1, 0.5)
	app.StartS = 2
	app.StopS = 4
	e := mustEngine(t, Config{Platform: plat, Apps: []App{app}, LogEvents: true})
	if err := e.SetOPP("a15", 16); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	info, _ := e.App("dnn1")
	if info.Running {
		t.Fatal("app must have stopped")
	}
	// ~4 releases in [2,4) at 0.5s period.
	if info.Released < 3 || info.Released > 5 {
		t.Fatalf("released = %d, want ~4", info.Released)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	plat := hw.OdroidXU3()
	prof := perf.PaperReferenceProfile()
	// Levels {1, 3}: admitted, it let SetLevel(app, 2) panic in the
	// profile lookup instead of returning an error.
	gap := perf.ModelProfile{Name: "gap", Levels: []perf.LevelSpec{
		{Level: 1, MACs: 1_000_000}, {Level: 3, MACs: 2_000_000}}}
	cases := []Config{
		{Platform: nil},
		{Platform: plat, Apps: []App{{Name: "", Kind: KindDNN}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindDNN, Profile: prof,
			Level: 1, PeriodS: 1, Placement: Placement{Cluster: "nope", Cores: 1}}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindDNN, Profile: prof,
			Level: 0, PeriodS: 1, Placement: Placement{Cluster: "a15", Cores: 1}}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindDNN, Profile: prof,
			Level: 1, PeriodS: 0, Placement: Placement{Cluster: "a15", Cores: 1}}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindBackground, Util: 0,
			Placement: Placement{Cluster: "a15", Cores: 1}}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindDNN, Profile: prof,
			Level: 1, PeriodS: 1, Placement: Placement{Cluster: "a15", Cores: 0}}}},
		{Platform: plat, Apps: []App{
			{Name: "x", Kind: KindBackground, Util: 0.5, Placement: Placement{Cluster: "a15", Cores: 1}},
			{Name: "x", Kind: KindBackground, Util: 0.5, Placement: Placement{Cluster: "a15", Cores: 1}}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindDNN, Profile: prof,
			Level: 1, PeriodS: 1, StartS: 5, StopS: 3, Placement: Placement{Cluster: "a15", Cores: 1}}}},
		{Platform: plat, Apps: []App{{Name: "x", Kind: KindDNN, Profile: gap,
			Level: 1, PeriodS: 1, Placement: Placement{Cluster: "a15", Cores: 1}}}},
	}
	// Non-finite timing and load. A NaN period or start hung Run and a NaN
	// render util turned energy and temperature into NaN, so these are
	// only built, never run.
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []func(a *App){
		func(a *App) { a.PeriodS = nan },
		func(a *App) { a.PeriodS = inf },
		func(a *App) { a.StartS = nan },
		func(a *App) { a.StartS = inf },
		func(a *App) { a.StartS = -inf },
		func(a *App) { a.StopS = nan },
		func(a *App) { a.StopS = inf },
	} {
		a := dnnApp("x", "a15", 1, 1, 1)
		bad(&a)
		cases = append(cases, Config{Platform: plat, Apps: []App{a}})
	}
	for _, util := range []float64{nan, inf, -inf} {
		cases = append(cases, Config{Platform: plat, Apps: []App{{Name: "x", Kind: KindRender, Util: util,
			Placement: Placement{Cluster: "a15", Cores: 1}}}})
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d must be rejected", i)
		}
	}
	// Run with non-positive horizon must fail.
	e := mustEngine(t, Config{Platform: plat, Apps: []App{dnnApp("ok", "a15", 1, 1, 1)}})
	if err := e.Run(0); err == nil {
		t.Fatal("zero-length run must error")
	}
}

// controllerFuncs adapts plain funcs to the Controller interface.
type controllerFuncs struct {
	tick  func(e *Engine)
	event func(e *Engine, ev Event)
}

func (c controllerFuncs) OnTick(e *Engine) {
	if c.tick != nil {
		c.tick(e)
	}
}
func (c controllerFuncs) OnEvent(e *Engine, ev Event) {
	if c.event != nil {
		c.event(e, ev)
	}
}

func TestClusterInfoReporting(t *testing.T) {
	plat := hw.FlagshipSoC()
	a := dnnApp("dnn1", "npu", 1, 2, 0.5)
	a.ModelBytes = 4 << 20
	e := mustEngine(t, Config{Platform: plat, Apps: []App{a}})
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	info, err := e.Cluster("npu")
	if err != nil {
		t.Fatal(err)
	}
	if app, _ := e.App("dnn1"); !app.Running || app.Placement.Cluster != "npu" {
		t.Fatalf("dnn1 running %v on %q, want running on npu", app.Running, app.Placement.Cluster)
	}
	// 50% level of a 4 MiB model = 2 MiB used of 8 MiB.
	wantFree := plat.Cluster("npu").MemBytes - 2<<20
	if info.MemFree != wantFree {
		t.Fatalf("MemFree = %d, want %d", info.MemFree, wantFree)
	}
	if _, err := e.Cluster("nope"); err == nil {
		t.Fatal("unknown cluster must error")
	}
}

// tieApp is a DNN alone on plat's a15 cluster whose frame period equals
// its job latency there at the minimum OPP, so every job completes at the
// instant the next frame is released.
func tieApp(plat *hw.Platform) App {
	c := plat.Cluster("a15")
	app := dnnApp("tie", "a15", 2, 3, 1)
	rate := c.EffectiveRate(c.OPPs[0], 2)
	work := float64(app.Profile.Level(3).MACs)
	work += c.FixedOverheadS * rate
	app.PeriodS = work / rate
	return app
}

// TestCompletionAtDeadlineBeatsRelease pins the tie rule of the package
// doc. The app's period is its job latency formed the way the engine forms
// both, so every completion is due at the very instant the next frame is
// released. The completion wins: each job is on time and each frame starts
// a new job, none is dropped. Were the release first, every other frame
// would be dropped.
func TestCompletionAtDeadlineBeatsRelease(t *testing.T) {
	plat := hw.OdroidXU3()
	app := tieApp(plat)
	e := mustEngine(t, Config{Platform: plat, Apps: []App{app}, LogEvents: true})
	if err := e.Run(20 * app.PeriodS); err != nil {
		t.Fatal(err)
	}
	releaseS, ties := 0.0, 0
	for _, ev := range e.Report().Events {
		if ev.Kind == EvJobComplete || ev.Kind == EvDeadlineMiss {
			if releaseS += app.PeriodS; ev.TimeS != releaseS {
				t.Fatalf("job %d done at %.17g, want %.17g, the instant the next frame is released", ties, ev.TimeS, releaseS)
			}
			ties++
		}
	}
	info, _ := e.App("tie")
	if ties < 10 || info.Dropped != 0 || info.Missed != 0 || info.Completed < info.Released-1 {
		t.Fatalf("%d ties: %d released, %d completed, %d missed, %d dropped; want every job on time and no drop",
			ties, info.Released, info.Completed, info.Missed, info.Dropped)
	}
}
