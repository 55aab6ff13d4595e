package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// reportJSON canonicalises a report for byte comparison: the encoding
// covers every exported field, including the full event log.
func reportJSON(t *testing.T, rep Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResetEquivalence is the tentpole's correctness pin at the engine
// layer: Reset-then-Run on a reused engine must produce a report
// byte-identical to New-then-Run of the same config, including across
// config changes that shrink and regrow the backing stores (fewer apps,
// different platforms, then back).
func TestResetEquivalence(t *testing.T) {
	big := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps(), LogEvents: true}
	small := Config{
		Platform:  hw.OdroidXU3(),
		Apps:      []App{dnnApp("solo", "a15", 4, 3, 0.05)},
		LogEvents: true,
	}
	jetson := Config{
		Platform: hw.JetsonNano(),
		Apps: []App{
			dnnApp("vision", "gpu", 0, 4, 0.02),
			dnnApp("audio", "a57", 2, 2, 0.1),
		},
		LogEvents: true,
	}
	// The reuse sequence flagship→odroid→jetson→flagship exercises store
	// shrink, map clear with stale keys, and regrowth into retained
	// capacity. It also takes one engine, and its decay memo, through all
	// three thermal time constants (4, 27 and 36 s).
	seq := []Config{big, small, jetson, big}

	var reused *Engine
	for i, cfg := range seq {
		fresh := mustEngine(t, cfg)
		if err := fresh.Run(10); err != nil {
			t.Fatal(err)
		}
		want := reportJSON(t, fresh.Report())

		if reused == nil {
			reused = mustEngine(t, cfg)
		} else if err := reused.Reset(cfg); err != nil {
			t.Fatalf("step %d: Reset: %v", i, err)
		}
		if err := reused.Run(10); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := reportJSON(t, reused.Report())
		if string(got) != string(want) {
			t.Fatalf("step %d: reused-engine report differs from fresh engine\nfresh:  %s\nreused: %s", i, want, got)
		}
	}
}

// TestResetAfterError: a Reset that fails validation leaves the engine
// poisoned only until the next successful Reset, which must fully rewind
// it again.
func TestResetAfterError(t *testing.T) {
	good := Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", 4, 3, 0.05)}, LogEvents: true}
	e := mustEngine(t, good)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Apps = []App{dnnApp("d", "nope", 4, 3, 0.05)}
	if err := e.Reset(bad); err == nil {
		t.Fatal("Reset accepted an app on an unknown cluster")
	}

	if err := e.Reset(good); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	fresh := mustEngine(t, good)
	if err := fresh.Run(5); err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, e.Report())) != string(reportJSON(t, fresh.Report())) {
		t.Fatal("report after recovering from a failed Reset differs from a fresh engine")
	}
}

// TestResetRejectsDuplicateApp: validation inside Reset sees the apps
// inserted so far, not leftovers of the previous run.
func TestResetRejectsDuplicateApp(t *testing.T) {
	cfg := Config{Platform: hw.OdroidXU3(), Apps: []App{
		dnnApp("d", "a15", 4, 3, 0.05),
		dnnApp("d", "a7", 4, 3, 0.05),
	}}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted duplicate app names")
	}
	e := mustEngine(t, Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", 4, 3, 0.05)}})
	if err := e.Reset(cfg); err == nil {
		t.Fatal("Reset accepted duplicate app names")
	}
}

// TestResetRejectsBadCPUPlacement: a CPU placement needs 1 to all of its
// cluster's cores, from New and Reset. 8 cores on odroid-xu3's 4-core a15
// ran at a core fraction of 2. All of them is accepted.
func TestResetRejectsBadCPUPlacement(t *testing.T) {
	e := mustEngine(t, Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", 4, 3, 0.05)}})
	for _, cores := range []int{-1, 0, 5, 8} {
		cfg := Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", cores, 3, 0.05)}}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %d cores on a15", cores)
		}
		if err := e.Reset(cfg); err == nil {
			t.Errorf("Reset accepted %d cores on a15", cores)
		}
	}
	if err := e.Reset(Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("d", "a15", 4, 3, 0.05)}}); err != nil {
		t.Errorf("Reset refused all 4 cores of a15: %v", err)
	}
}

// TestResetRejectsBadTick: a negative, NaN or infinite tick is an error
// from New and Reset. Such a tick never fired, so a scripted run silently
// skipped every action its controller applies on ticks. 0 still disables
// ticks.
func TestResetRejectsBadTick(t *testing.T) {
	e := mustEngine(t, Config{Platform: hw.OdroidXU3(), TickS: 0})
	for _, tick := range []float64{-1, -0.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{Platform: hw.OdroidXU3(), TickS: tick}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted tick %g", tick)
		}
		if err := e.Reset(cfg); err == nil {
			t.Errorf("Reset accepted tick %g", tick)
		}
	}
}

// TestResetRejectsMoreThan64Apps pins the app limit each cluster's
// one-word resident set imposes: 65 apps are an error, and the engine
// then takes a 64-app config and runs it with every app resident.
func TestResetRejectsMoreThan64Apps(t *testing.T) {
	apps := make([]App, 65)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("bg%d", i), Kind: KindBackground, Util: 0.01,
			Placement: Placement{Cluster: "cpu-lit", Cores: 1}}
	}
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC()})
	if err := e.Reset(Config{Platform: hw.FlagshipSoC(), Apps: apps}); err == nil {
		t.Fatal("Reset accepted 65 apps")
	}
	if err := e.Reset(Config{Platform: hw.FlagshipSoC(), Apps: apps[:64]}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	info, err := e.Cluster("cpu-lit")
	if err != nil {
		t.Fatal(err)
	}
	residents := 0
	for _, a := range appsOf(e) {
		if a.Running && a.Placement.Cluster == "cpu-lit" {
			residents++
		}
	}
	if want := e.computeClusterUtil(e.cluster("cpu-lit")); residents != 64 || info.Util != want {
		t.Fatalf("cpu-lit hosts %d residents at util %v, want 64 at %v", residents, info.Util, want)
	}
}

// TestResetRejectsMoreThan64Clusters pins the cluster limit the one-word
// set of clusters to re-sum imposes: 65 clusters are an error, and with
// 64 the last one's energy segment still follows its load: over an idle
// twin it gains exactly 1 s of the load's dynamic power.
func TestResetRejectsMoreThan64Clusters(t *testing.T) {
	plat := func(n int) *hw.Platform {
		p := hw.FlagshipSoC()
		lit := *p.Cluster("cpu-lit")
		p.Clusters = nil
		for i := range n {
			c := lit
			c.Name = fmt.Sprintf("c%d", i)
			p.Clusters = append(p.Clusters, &c)
		}
		return p
	}
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC()})
	if err := e.Reset(Config{Platform: plat(65)}); err == nil {
		t.Fatal("Reset accepted 65 clusters")
	}
	p := plat(64)
	bg := App{Name: "bg", Kind: KindBackground, Util: 1, StartS: 1, Placement: Placement{Cluster: "c63", Cores: 1}}
	if err := e.Reset(Config{Platform: p, Apps: []App{bg}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	first, err := e.Cluster("c0")
	if err != nil {
		t.Fatal(err)
	}
	last, err := e.Cluster("c63")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Cluster("c63")
	load := c.BusyPowerMW(c.OPPs[0], c.Cores, 1/float64(c.Cores)) - c.IdlePowerMW()
	if got := last.EnergyMJ - first.EnergyMJ; !(load > 0) || math.Abs(got-load) > 1e-9*load {
		t.Fatalf("c63 drew %gmJ over idle c0, want %gmJ: its load was not integrated", got, load)
	}
}

// tickFunc is a controller of a func type, which == cannot compare.
type tickFunc func(e *Engine)

func (f tickFunc) OnTick(e *Engine)     { f(e) }
func (tickFunc) OnEvent(*Engine, Event) {}

// sleepyValue is a waking controller held by value, a struct with a
// slice, which == cannot compare either; its wake makes no tick due.
type sleepyValue struct{ pad []int }

func (sleepyValue) OnTick(*Engine)         {}
func (sleepyValue) OnEvent(*Engine, Event) {}
func (sleepyValue) NextWake(*Engine) Wake  { return Wake{} }

// TestResetResolvesWaker resets one engine through a sequence of
// controllers — values of types == cannot compare, each twice in a row,
// one pointer twice, then another pointer and none — and requires each
// run to do the work a fresh engine does for its controller: no tick
// handled under a controller whose wake makes none due, every tick under
// one that is no Waker. So Reset keeps a resolved Waker only for the
// controller it was resolved for, and compares no controller it cannot.
func TestResetResolvesWaker(t *testing.T) {
	sleepy := &sleeper{}
	tf := tickFunc(func(e *Engine) {})
	var reused *Engine
	for i, ctrl := range []Controller{
		sleepyValue{pad: []int{1}}, sleepyValue{pad: []int{1}},
		tf, tf,
		sleepy, sleepy,
		&boundaryCtrl{},
		nil,
		sleepyValue{},
	} {
		cfg := Config{Platform: hw.OdroidXU3(), Apps: []App{dnnApp("solo", "a15", 4, 3, 0.05)}, Controller: ctrl, TickS: 0.1}
		fresh := mustEngine(t, cfg)
		if err := fresh.Run(2); err != nil {
			t.Fatal(err)
		}
		if reused == nil {
			reused = mustEngine(t, cfg)
		} else if err := reused.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := reused.Run(2); err != nil {
			t.Fatal(err)
		}
		_, waking := ctrl.(Waker)
		if got, want := reused.Work(), fresh.Work(); got != want || (want.Ticks == 0) != (waking || ctrl == nil) {
			t.Fatalf("controller %d (%T): reused engine did %+v, a fresh one %+v", i, ctrl, got, want)
		}
	}
}
