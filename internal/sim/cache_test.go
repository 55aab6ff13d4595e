package sim

import (
	"math"
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// This file is the white-box safety net under the derived per-cluster
// values: every value Engine.touch stores must equal a from-scratch
// reference scan after every engine step and in every controller callback
// of a scenario that churns every mutation they read (app starts/stops,
// job activity, DVFS switches including the accelerators' companion CPU,
// migrations with downtime, downtimes ending at one instant, cluster
// failure and repair, ambient changes), and PlanEpoch must move exactly
// when planning-relevant state does.

// cacheStep is one knob the auditor turns at a fixed time.
type cacheStep struct {
	atS float64
	do  func(e *Engine) error
}

// cacheAuditor is a controller that cross-checks every derived value
// against its reference scan in each callback, while turning knobs at
// fixed times; the test also calls audit after every engine step.
type cacheAuditor struct {
	t       *testing.T
	steps   []cacheStep
	next    int // index of the first step not yet taken
	audited int
	skipped int // clusters left unchecked while an unblock was due (see settled)
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

// settled reports whether cs's derived values can be checked against a
// scan at the clock. Derived values are evaluated at the cluster's last
// touch (see Engine.touch), and the end of a migration downtime touches
// it only when its unblock timer fires. So while a resident app's timer is
// due at this instant but has not fired, the cluster may still hold what
// it derived before the downtime ended, and so may the companion it
// loads.
func settled(e *Engine, cs *clusterState) bool {
	for _, a := range e.appList {
		if a.placedCS == cs && a.completionSeq != 0 && a.completionKind == hUnblock && a.completionEst == e.now {
			return false
		}
	}
	for ocs := cs.loadHead; ocs != nil; ocs = ocs.loadNext {
		if !settled(e, ocs) {
			return false
		}
	}
	return true
}

// audit compares every cluster's resident set, and every settled
// cluster's derived values and the rate of each running job on it, against
// the reference scans.
func (c *cacheAuditor) audit(e *Engine) {
	c.audited++
	for _, cs := range e.clusterList {
		if want := e.computeResidents(cs); cs.res != want {
			c.t.Errorf("t=%.2f %s: resident set %b, recompute %b", e.Now(), cs.c.Name, cs.res, want)
		}
		if !settled(e, cs) {
			c.skipped++
			continue
		}
		// The share means something only on an accelerator.
		share := e.computeAcceleratorDNNShare(cs)
		if cs.c.Type.IsAccelerator() && cs.share != share {
			c.t.Errorf("t=%.2f %s: derived share %v, recompute %v", e.Now(), cs.c.Name, cs.share, share)
		}
		if want := e.computeAnyActiveDNN(cs); cs.active != want {
			c.t.Errorf("t=%.2f %s: derived active %v, recompute %v", e.Now(), cs.c.Name, cs.active, want)
		}
		wantUtil, wantPow := 0.0, 0.0
		if cs.online {
			wantUtil = e.computeClusterUtil(cs)
			wantPow = cs.c.BusyPowerMW(cs.c.OPPs[cs.oppIdx], cs.c.Cores, wantUtil)
		}
		if cs.util != wantUtil {
			c.t.Errorf("t=%.2f %s: derived util %v, recompute %v", e.Now(), cs.c.Name, cs.util, wantUtil)
		}
		if cs.pow != wantPow {
			c.t.Errorf("t=%.2f %s: derived power %v, recompute %v", e.Now(), cs.c.Name, cs.pow, wantPow)
		}
		for _, a := range e.appList {
			if a.placedCS != cs || a.Kind != KindDNN || !a.started || a.stopped || !a.jobActive {
				continue
			}
			want := 0.0
			switch opp := cs.c.OPPs[cs.oppIdx]; {
			case !cs.online || e.now < a.blockedUntil:
			case cs.c.Type.IsAccelerator():
				want = cs.c.EffectiveRate(opp, cs.c.Cores) * share
			default:
				want = cs.c.EffectiveRate(opp, a.placed.Cores)
			}
			if a.rate != want {
				c.t.Errorf("t=%.2f %s: derived rate %v, recompute %v", e.Now(), a.Name, a.rate, want)
			}
		}
	}
}

// auditAnchors checks, after a step's refresh, that a refresh visiting
// every app, not only those touch marked, would change nothing: every
// running job is anchored at the rate touch stored for it, and every
// unstopped app is armed, or idle or stalled by refresh's own rule.
func (c *cacheAuditor) auditAnchors(e *Engine) {
	for _, a := range e.appList {
		if a.stopped {
			continue
		}
		if a.jobActive && a.anchorRate != a.rate {
			c.t.Errorf("t=%.2f %s: anchored at %v, derived rate %v", e.Now(), a.Name, a.anchorRate, a.rate)
		}
		if a.completionSeq == 0 && (e.now < a.blockedUntil || a.jobActive && a.anchorRate > 0) {
			c.t.Errorf("t=%.2f %s: no timer armed (blocked until %v, job active %v at %v MAC/s)",
				e.Now(), a.Name, a.blockedUntil, a.jobActive, a.anchorRate)
		}
	}
}

// computeResidents is the reference scan for a cluster's resident set.
func (e *Engine) computeResidents(cs *clusterState) uint64 {
	var res uint64
	for _, a := range e.appList {
		if a.started && !a.stopped && a.placedCS == cs {
			res |= 1 << a.idx
		}
	}
	return res
}

// computeClusterUtil is the reference scan for an online cluster's
// utilisation: resident DNN jobs run their cores flat out, render and
// background apps contribute their configured utilisation, and
// accelerator inference induces CompanionUtil on the companion cluster.
func (e *Engine) computeClusterUtil(cs *clusterState) float64 {
	util := 0.0
	for _, a := range e.appList {
		if !a.started || a.stopped || a.placedCS != cs {
			continue
		}
		switch a.Kind {
		case KindDNN:
			if a.jobActive && e.now >= a.blockedUntil {
				if cs.c.Type.IsAccelerator() {
					util += e.computeAcceleratorDNNShare(cs)
				} else {
					util += float64(a.placed.Cores) / float64(cs.c.Cores)
				}
			}
		case KindRender, KindBackground:
			if cs.c.Type.IsAccelerator() {
				util += a.Util
			} else {
				util += float64(a.placed.Cores) / float64(cs.c.Cores) * a.Util
			}
		}
	}
	for _, ocs := range e.clusterList {
		if ocs.companion == cs && ocs.c.CompanionUtil != 0 && e.computeAnyActiveDNN(ocs) {
			util += ocs.c.CompanionUtil
		}
	}
	if util > 1 {
		util = 1
	}
	return util
}

// computeAcceleratorDNNShare is the reference scan for the fraction of an
// accelerator each active DNN job uses: active jobs share whatever render
// apps leave.
func (e *Engine) computeAcceleratorDNNShare(cs *clusterState) float64 {
	renderUtil := 0.0
	active := 0
	for _, a := range e.appList {
		if !a.started || a.stopped || a.placedCS != cs {
			continue
		}
		switch a.Kind {
		case KindRender, KindBackground:
			renderUtil += a.Util
		case KindDNN:
			if a.jobActive && e.now >= a.blockedUntil {
				active++
			}
		}
	}
	if active == 0 {
		return 0
	}
	free := 1 - renderUtil
	if free < 0 {
		free = 0
	}
	return free / float64(active)
}

// computeAnyActiveDNN is the reference scan for whether a cluster runs an
// active DNN job.
func (e *Engine) computeAnyActiveDNN(cs *clusterState) bool {
	for _, a := range e.appList {
		if a.started && !a.stopped && a.placedCS == cs &&
			a.Kind == KindDNN && a.jobActive && e.now >= a.blockedUntil {
			return true
		}
	}
	return false
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
		{
			Name: "late", Kind: KindDNN, Profile: prof, Level: 2,
			PeriodS: 0.050, ModelBytes: 7 << 20, StartS: 13,
			Placement: Placement{Cluster: "gpu"},
		},
	}
}

// TestCachedObservablesMatchRecompute drives a flagship-SoC scenario
// through every mutation the derived values read, stepping the engine one
// event at a time as TestEngineInvariants does and checking that each step
// handles the earliest armed event, and asserts after every step and in
// every controller callback that the derived cluster util/power/share/active
// and running jobs' rates are indistinguishable from the reference scans,
// and after every step that each running job is anchored at its derived
// rate. dnn1 runs on the NPU, whose companion is cpu-lit, so the steps below
// reach each path where a missed touch would leave a stale value: the
// companion's own DVFS, migrations off and back onto the NPU (with
// downtime), the NPU failing under dnn1 and coming back, two downtimes
// of equal length ending at one instant, first on unrelated clusters and
// then on one cluster, and a migration before the app's start.
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
		{8, func(e *Engine) error { return e.SetAmbient(40) }},
		{8.5, online("npu", true)},
		{10, func(e *Engine) error { return e.SetLevel("dnn1", 2) }},
		// Equal resident sizes give equal downtimes, so each pair of
		// migrations below ends its downtimes at one instant.
		{10.5, func(e *Engine) error { return e.SetLevel("dnn2", 2) }},
		{11, migrate("dnn1", "cpu-big", 2)}, // unrelated clusters
		{11, migrate("dnn2", "gpu", 0)},
		{12, migrate("dnn1", "cpu-lit", 1)}, // one cluster
		{12, migrate("dnn2", "cpu-lit", 1)},
		// Before its start, so no cluster hosts it; its downtime still
		// arms an unblock timer.
		{12.75, migrate("late", "cpu-big", 2)},
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
	var sameTies, otherTies int
	e.prime()
	for {
		armed := armedEvents(e)
		slices.SortFunc(armed, refEventOrder)
		// Count the unblocks that tie with another app's at one instant
		// while both apps run a job, if the step handles the unblock.
		var same, other int
		if len(armed) > 0 && armed[0].kind == hUnblock && e.appList[armed[0].app].jobActive {
			a := e.appList[armed[0].app]
			for _, o := range e.appList {
				if o != a && o.jobActive && o.completionSeq != 0 && o.completionKind == hUnblock && o.completionEst == armed[0].t {
					if o.placedCS == a.placedCS {
						same++
					} else {
						other++
					}
				}
			}
		}
		snap := snapStep(e)
		if !e.step(endS) {
			break
		}
		if e.stepsBy == snap.steps {
			continue // a thermal alarm: no event was handled
		}
		snap.checkHandled(t, e, armed[0])
		sameTies, otherTies = sameTies+same, otherTies+other
		aud.audit(e)
		aud.auditAnchors(e)
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
	if sameTies == 0 || otherTies == 0 || aud.skipped == 0 {
		t.Fatalf("%d ties on one cluster, %d across clusters, %d clusters skipped mid-tie: want each > 0",
			sameTies, otherTies, aud.skipped)
	}
	if rep := e.Report(); rep.Migrations != 10 || rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("migrations=%d fails=%d repairs=%d, want 10/1/1", rep.Migrations, rep.ClusterFails, rep.ClusterRepairs)
	}
}

// TestLoaderTouchEndsCompanionDowntime pins the rule touch keeps for a
// companion CPU: while one of its residents is inside a migration
// downtime, a loader's touch derives it in full, so a downtime there
// counts as ended at the first touch at or after its end, the loader's
// included. dnn1 moves to the NPU and dnn2 to the NPU's companion,
// cpu-lit, at one instant with equal downtimes; dnn1's unblock timer was
// armed first, so it fires first, and by then dnn2 must run again.
func TestLoaderTouchEndsCompanionDowntime(t *testing.T) {
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC(), Apps: []App{
		dnnApp("dnn1", "cpu-big", 2, 2, 0.040),
		dnnApp("dnn2", "cpu-big", 2, 2, 0.040),
	}})
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate("dnn1", Placement{Cluster: "npu"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate("dnn2", Placement{Cluster: "cpu-lit", Cores: 2}); err != nil {
		t.Fatal(err)
	}
	dnn1, dnn2 := e.app("dnn1"), e.app("dnn2")
	if dnn1.blockedUntil != dnn2.blockedUntil {
		t.Fatalf("downtimes end at %v and %v, want one instant", dnn1.blockedUntil, dnn2.blockedUntil)
	}
	for {
		armed := armedEvents(e)
		slices.SortFunc(armed, refEventOrder)
		if len(armed) == 0 || armed[0].t > 2 {
			t.Fatal("dnn1's unblock timer never fired")
		}
		ev, snap := armed[0], snapStep(e)
		e.step(2)
		if e.stepsBy == snap.steps {
			continue // a thermal alarm: no event was handled
		}
		snap.checkHandled(t, e, ev)
		if ev.kind == hUnblock && ev.app == dnn1.idx {
			if dnn2.rate == 0 {
				t.Fatalf("t=%v: dnn1's unblock left dnn2 stalled on cpu-lit", e.Now())
			}
			return
		}
	}
}

// epochProbe samples PlanEpoch mid-run and performs the knob steps at
// fixed ticks, all within a single Run (a split Run would see the same
// events: prime arms each start once per Reset).
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
	step("SetAmbient change", func() error { return e.SetAmbient(35) }, true)
	step("SetAmbient no-op", func() error { return e.SetAmbient(35) }, false)
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

// TestDeriveFastPathsMatchFormula pins touch's shortcuts to the general
// formulas they replace, bit for bit, for every catalog cluster and OPP:
// the OPP rate setOPP caches is EffectiveRate at every core; a lone
// active job on an accelerator gets max(0, 1−render load)/1 of it,
// under render loads across [0, 1]; and a lone job on n CPU cores loads
// the cluster by n/cores, its placement's cached core fraction, and runs
// at EffectiveRate on n cores.
func TestDeriveFastPathsMatchFormula(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, plat := range hw.Catalog() {
		for _, c := range plat.Clusters {
			apps := []App{dnnApp("d", c.Name, c.Cores, 1, 1)}
			if c.Type.IsAccelerator() {
				apps = append(apps, App{Name: "r", Kind: KindRender, Util: 0.5, Placement: Placement{Cluster: c.Name}})
			}
			e := mustEngine(t, Config{Platform: plat, Apps: apps})
			if err := e.Run(1e-6); err != nil {
				t.Fatal(err)
			}
			a, cs := e.appList[0], e.cluster(c.Name)
			if !a.jobActive {
				t.Fatalf("%s/%s: the job finished within a microsecond", name, c.Name)
			}
			for oi, opp := range c.OPPs {
				cs.setOPP(oi)
				if want := c.EffectiveRate(opp, c.Cores); !same(cs.oppRate, want) {
					t.Fatalf("%s/%s opp %d: cached OPP rate %v, EffectiveRate %v", name, c.Name, oi, cs.oppRate, want)
				}
				if c.Type.IsAccelerator() {
					for _, u := range []float64{1e-9, 0.1, 1.0 / 3, 0.5, 0.75, 0.999999, 1} {
						e.appList[1].Util = u
						e.touch(cs)
						active := 1
						share := max(0, 1-u) / float64(active)
						if !same(cs.share, share) || !same(a.rate, c.EffectiveRate(opp, c.Cores)*share) {
							t.Fatalf("%s/%s opp %d, render %v: share %v rate %v, want %v and %v", name, c.Name, oi, u,
								cs.share, a.rate, share, c.EffectiveRate(opp, c.Cores)*share)
						}
					}
					continue
				}
				for n := 1; n <= c.Cores; n++ {
					a.setPlacement(Placement{Cluster: c.Name, Cores: n}, cs)
					e.touch(cs)
					if frac := float64(n) / float64(c.Cores); !same(cs.own, frac) || !same(a.rate, c.EffectiveRate(opp, n)) {
						t.Fatalf("%s/%s opp %d, %d cores: load %v rate %v, want %v and %v", name, c.Name, oi, n,
							cs.own, a.rate, frac, c.EffectiveRate(opp, n))
					}
				}
			}
		}
	}
}
