package sim

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// This file is the white-box safety net under the dirty-tracked observable
// caches: every cached value must equal a from-scratch recompute after
// every engine step and in every controller callback of a scenario that
// churns all the invalidation sources (app starts/stops, job activity,
// DVFS switches including the accelerators' companion CPU, migrations with
// downtime, cluster failure and repair, ambient changes), and PlanEpoch
// must move exactly when planning-relevant state does.

// cacheStep is one knob the auditor turns at a fixed time.
type cacheStep struct {
	atS float64
	do  func(e *Engine) error
}

// cacheAuditor is a controller that cross-checks every cache against its
// compute function in each callback, while turning knobs at fixed times;
// the test also calls audit after every engine step.
type cacheAuditor struct {
	t       *testing.T
	steps   []cacheStep
	next    int // index of the first step not yet taken
	audited int
}

func (c *cacheAuditor) OnTick(e *Engine) {
	for c.next < len(c.steps) && e.Now() >= c.steps[c.next].atS {
		if err := c.steps[c.next].do(e); err != nil {
			c.t.Errorf("t=%.2f step %d: %v", e.Now(), c.next, err)
		}
		c.next++
	}
	c.audit(e)
}

func (c *cacheAuditor) OnEvent(e *Engine, ev Event) { c.audit(e) }

// audit reads every cached observable (filling the caches), then compares
// the cached values against direct recomputes.
func (c *cacheAuditor) audit(e *Engine) {
	c.audited++
	for _, cs := range e.clusterList {
		util := e.clusterUtilOf(cs)
		pow := e.clusterPowerMW(cs)
		share := e.acceleratorDNNShare(cs)
		active := e.anyActiveDNN(cs)
		if want := e.computeAcceleratorDNNShare(cs); share != want {
			c.t.Errorf("t=%.2f %s: cached share %v, recompute %v", e.Now(), cs.c.Name, share, want)
		}
		if want := e.computeAnyActiveDNN(cs); active != want {
			c.t.Errorf("t=%.2f %s: cached active %v, recompute %v", e.Now(), cs.c.Name, active, want)
		}
		wantUtil := 0.0
		if cs.online {
			wantUtil = e.computeClusterUtil(cs)
		}
		if util != wantUtil {
			c.t.Errorf("t=%.2f %s: cached util %v, recompute %v", e.Now(), cs.c.Name, util, wantUtil)
		}
		wantPow := 0.0
		if cs.online {
			wantPow = cs.c.BusyPowerMW(cs.c.OPPs[cs.oppIdx], cs.c.Cores, wantUtil)
		}
		if pow != wantPow {
			c.t.Errorf("t=%.2f %s: cached power %v, recompute %v", e.Now(), cs.c.Name, pow, wantPow)
		}
	}
	for _, a := range e.appList {
		if a.Kind != KindDNN || !a.started || a.stopped {
			continue
		}
		rate := e.jobRate(a)
		if want := e.computeJobRate(a); rate != want {
			c.t.Errorf("t=%.2f %s: cached rate %v, recompute %v", e.Now(), a.Name, rate, want)
		}
	}
}

func cacheTestApps() []App {
	prof := perf.UniformProfile("cachetest", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	return []App{
		{
			Name: "dnn1", Kind: KindDNN, Profile: prof, Level: 4,
			PeriodS: 0.040, ModelBytes: 7 << 20,
			Placement: Placement{Cluster: "npu"},
		},
		{
			Name: "dnn2", Kind: KindDNN, Profile: prof, Level: 3,
			PeriodS: 1.0 / 60, ModelBytes: 7 << 20, StartS: 2,
			Placement: Placement{Cluster: "cpu-big", Cores: 4},
		},
		{
			Name: "vr", Kind: KindRender, Util: 0.6, StartS: 4, StopS: 11,
			Placement: Placement{Cluster: "gpu"},
		},
		{
			Name: "bg", Kind: KindBackground, Util: 0.3,
			Placement: Placement{Cluster: "cpu-lit", Cores: 2},
		},
	}
}

// TestCachedObservablesMatchRecompute drives a flagship-SoC scenario
// through every cache-invalidation source, stepping the engine one event
// at a time as TestEngineInvariants does, and asserts after every step
// and in every controller callback that the cached cluster
// util/power/share/active and per-app job rates are indistinguishable from
// recomputing them from scratch. dnn1 runs on the NPU, whose companion is cpu-lit, so the steps
// below reach each path where a missed per-cluster stamp would leave a
// stale value: the companion's own DVFS, migrations off and back onto the
// NPU (with downtime), and the NPU failing under dnn1 and coming back.
func TestCachedObservablesMatchRecompute(t *testing.T) {
	migrate := func(app, cluster string, cores int) func(e *Engine) error {
		return func(e *Engine) error { return e.Migrate(app, Placement{Cluster: cluster, Cores: cores}) }
	}
	online := func(cluster string, on bool) func(e *Engine) error {
		return func(e *Engine) error { return e.SetClusterOnline(cluster, on) }
	}
	aud := &cacheAuditor{t: t, steps: []cacheStep{
		{3, func(e *Engine) error { return e.SetOPP("cpu-big", 5) }},
		{3.5, func(e *Engine) error { return e.SetOPP("cpu-lit", 3) }}, // the NPU's companion
		{4.5, migrate("dnn2", "cpu-big", 2)},                           // core shrink in place
		{5, migrate("dnn1", "cpu-big", 2)},                             // NPU → big CPU
		{5.5, migrate("dnn1", "npu", 0)},                               // and back
		// NPU → GPU: a model reload with real downtime, so blockedUntil
		// predicates flip mid-window and again when the window ends.
		{6, migrate("dnn1", "gpu", 0)},
		{7, migrate("dnn1", "npu", 0)},
		{7.5, online("npu", false)}, // dnn1's in-flight job aborts; it sits unhosted
		{8, func(e *Engine) error { e.SetAmbient(40); return nil }},
		{8.5, online("npu", true)},
		{10, func(e *Engine) error { return e.SetLevel("dnn1", 2) }},
	}}
	e, err := New(Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       cacheTestApps(),
		Controller: aud,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	const endS = 14
	e.prime()
	for e.step(endS) {
		aud.audit(e)
	}
	e.advanceTo(endS)
	if aud.next != len(aud.steps) {
		t.Fatalf("only %d of %d steps ran", aud.next, len(aud.steps))
	}
	// Auditing in the controller callbacks alone, while every job
	// completion still reached the controller, made 1132 audits of this
	// run; stepping must audit at least as often.
	if aud.audited < 1132 {
		t.Fatalf("audited %d times, want at least 1132", aud.audited)
	}
	if rep := e.Report(); rep.Migrations != 5 || rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("migrations=%d fails=%d repairs=%d, want 5/1/1", rep.Migrations, rep.ClusterFails, rep.ClusterRepairs)
	}
}

// epochProbe samples PlanEpoch mid-run and performs the knob steps at
// fixed ticks, all within a single Run (hStart events are re-pushed per
// Run call, so incremental Runs would re-fire starts and muddy the test).
type epochProbe struct {
	t          *testing.T
	atQuiet    uint64 // epoch at t≈2, after dnn1+bg started
	atQuiet2   uint64 // epoch at t≈5, after 3 s of pure job churn
	afterStart uint64 // epoch at t≈7, after dnn2's t=6 start
	didKnobs   bool
}

func (p *epochProbe) OnEvent(e *Engine, ev Event) {}

func (p *epochProbe) OnTick(e *Engine) {
	now := e.Now()
	switch {
	case p.atQuiet == 0 && now >= 2:
		p.atQuiet = e.PlanEpoch()
		if p.atQuiet == 0 {
			p.t.Error("app starts must move PlanEpoch")
		}
	case p.atQuiet2 == 0 && now >= 5:
		// dnn1 released/completed/missed frames for 3 s: pure job churn.
		p.atQuiet2 = e.PlanEpoch()
		if p.atQuiet2 != p.atQuiet {
			p.t.Errorf("job churn moved PlanEpoch %d -> %d", p.atQuiet, p.atQuiet2)
		}
	case p.afterStart == 0 && now >= 7:
		p.afterStart = e.PlanEpoch()
		if p.afterStart <= p.atQuiet2 {
			p.t.Error("app start at t=6 did not move PlanEpoch")
		}
		p.knobSteps(e)
		p.didKnobs = true
	}
}

func (p *epochProbe) knobSteps(e *Engine) {
	step := func(name string, f func() error, wantMove bool) {
		before := e.PlanEpoch()
		if err := f(); err != nil {
			p.t.Fatalf("%s: %v", name, err)
		}
		if moved := e.PlanEpoch() != before; moved != wantMove {
			p.t.Errorf("%s: PlanEpoch moved=%v, want %v", name, moved, wantMove)
		}
	}
	step("SetOPP", func() error { return e.SetOPP("cpu-big", 1) }, true)
	step("SetLevel", func() error { return e.SetLevel("dnn1", 3) }, true)
	step("Migrate", func() error {
		return e.Migrate("dnn2", Placement{Cluster: "cpu-big", Cores: 2})
	}, true)
	step("SetAmbient change", func() error { e.SetAmbient(35); return nil }, true)
	step("SetAmbient no-op", func() error { e.SetAmbient(35); return nil }, false)
}

// TestPlanEpochSemantics pins what PlanEpoch tracks — app lifecycle and
// knob state — and, just as deliberately, what it does not: the clock and
// per-job churn, which is what lets a manager elide replans while frames
// keep flowing.
func TestPlanEpochSemantics(t *testing.T) {
	prof := perf.UniformProfile("epochtest", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	apps := []App{
		{
			Name: "dnn1", Kind: KindDNN, Profile: prof, Level: 4,
			PeriodS: 0.040, ModelBytes: 7 << 20,
			Placement: Placement{Cluster: "npu"},
		},
		{
			Name: "bg", Kind: KindBackground, Util: 0.3,
			Placement: Placement{Cluster: "cpu-lit", Cores: 2},
		},
		{
			Name: "dnn2", Kind: KindDNN, Profile: prof, Level: 3,
			PeriodS: 1.0 / 60, ModelBytes: 7 << 20, StartS: 6,
			Placement: Placement{Cluster: "cpu-big", Cores: 4},
		},
		{
			Name: "vr", Kind: KindRender, Util: 0.6, StartS: 8, StopS: 11,
			Placement: Placement{Cluster: "gpu"},
		},
	}
	probe := &epochProbe{t: t}
	e, err := New(Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       apps,
		Controller: probe,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(12); err != nil {
		t.Fatal(err)
	}
	if !probe.didKnobs {
		t.Fatal("knob steps never ran")
	}
	// The four epoch-moving knob steps ran at t≈7, then vr started at t=8
	// and stopped at t=11: all six must have moved the epoch past the t=7
	// sample.
	if got := e.PlanEpoch(); got < probe.afterStart+4+2 {
		t.Fatalf("PlanEpoch %d; want ≥ %d after knob steps + vr start/stop",
			got, probe.afterStart+4+2)
	}
}
