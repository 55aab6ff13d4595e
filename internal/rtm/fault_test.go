package rtm

import (
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// markOffline flips the named cluster's availability bit in a view copy.
func markOffline(v *View, names ...string) {
	for i := range v.Clusters {
		for _, n := range names {
			if v.Clusters[i].Name == n {
				v.Clusters[i].Online = false
			}
		}
	}
}

// faultPolicies returns one instance of every planning strategy,
// including a learned policy over a small trained table.
func faultPolicies(t *testing.T) []Policy {
	t.Helper()
	var ps []Policy
	for _, name := range []string{"heuristic", "maxaccuracy", "minenergy"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	lp, err := NewLearnedPolicy("learned:test", trainedTestTable("h1p1s1a1"))
	if err != nil {
		t.Fatal(err)
	}
	return append(ps, lp)
}

// Every policy must route around dead silicon: with cpu-big offline no
// assignment may target it, including for the app currently placed there.
func TestPoliciesSkipOfflineClusters(t *testing.T) {
	for _, p := range faultPolicies(t) {
		t.Run(p.Name(), func(t *testing.T) {
			v := benchView(t)
			markOffline(&v, "cpu-big")
			plan := p.Plan(v)
			if len(plan) == 0 {
				t.Fatal("empty plan")
			}
			for _, asg := range plan {
				if asg.Placement.Cluster == "cpu-big" {
					t.Fatalf("%s assigned %s to offline cpu-big (pass %d)", p.Name(), asg.App, asg.Pass)
				}
			}
		})
	}
}

// With every cluster offline a plan is still produced (degenerate park)
// and nothing panics — the edge the fleet generator never produces but a
// library user can.
func TestAllClustersOfflinePlansWithoutPanic(t *testing.T) {
	for _, p := range faultPolicies(t) {
		t.Run(p.Name(), func(t *testing.T) {
			v := benchView(t)
			for i := range v.Clusters {
				v.Clusters[i].Online = false
			}
			plan := p.Plan(v)
			if len(plan) == 0 {
				t.Fatal("empty plan with all clusters offline")
			}
		})
	}
}

// A hand-built View may place an app on a cluster its platform lacks.
// When nothing fits (DynBudgetMW 0), every built-in policy parks such an
// app like one on an offline cluster: through the degraded pin while an
// online cluster can take it, and otherwise at level 1 where it is, with
// the ledger untouched. Engine-built views never carry such a placement.
func TestParkUnknownClusterPlansWithoutPanic(t *testing.T) {
	odroidView := func(t *testing.T) View {
		mgr := NewManager(nil)
		e, err := sim.New(sim.Config{
			Platform: hw.OdroidXU3(),
			Apps:     []sim.App{dnn("d", "a15", 4, 0.5)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		v := *mgr.buildView(e)
		v.DynBudgetMW = 0
		v.Apps[0].Placement = sim.Placement{Cluster: "npu", Cores: 1}
		return v
	}
	for _, name := range []string{"heuristic", "maxaccuracy", "minenergy"} {
		t.Run(name, func(t *testing.T) {
			p, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := p.Plan(odroidView(t))
			if len(plan) != 1 || plan[0].Pass != 3 || plan[0].Level != 1 {
				t.Fatalf("plan = %+v, want one pass-3 level-1 assignment", plan)
			}
			if c := plan[0].Placement.Cluster; c != "a15" && c != "a7" {
				t.Fatalf("app parked on %q, want the degraded pin to an online cluster", c)
			}

			v := odroidView(t)
			markOffline(&v, "a15", "a7")
			plan = p.Plan(v)
			if len(plan) != 1 || plan[0].Pass != 3 || plan[0].Level != 1 || plan[0].Placement != v.Apps[0].Placement {
				t.Fatalf("plan = %+v, want pass 3, level 1 at %+v", plan, v.Apps[0].Placement)
			}
		})
	}
	v := odroidView(t)
	markOffline(&v, "a15", "a7")
	st := newPlanState(&v)
	before := *st
	before.freeCores = slices.Clone(st.freeCores)
	before.freeDuty = slices.Clone(st.freeDuty)
	before.freeMem = slices.Clone(st.freeMem)
	before.oppNeed = slices.Clone(st.oppNeed)
	park(st, &v.Apps[0], new(Assignment))
	if st.dynBudget != before.dynBudget || !slices.Equal(st.freeCores, before.freeCores) ||
		!slices.Equal(st.freeDuty, before.freeDuty) || !slices.Equal(st.freeMem, before.freeMem) ||
		!slices.Equal(st.oppNeed, before.oppNeed) {
		t.Fatal("park charged the ledger for an app on an unknown cluster")
	}
}

// degradedPin picks the least-loaded online cluster able to host the app
// at its floor, and refuses when no online cluster qualifies.
func TestDegradedPin(t *testing.T) {
	v := benchView(t)
	st := newPlanState(&v)
	app := v.Apps[0] // dnn1, 7 MiB model
	if ci := degradedPin(st, &app); ci < 0 || !st.online[ci] {
		t.Fatalf("degradedPin = %d with healthy platform", ci)
	}
	// All offline: nowhere to pin.
	vAll := benchView(t)
	for i := range vAll.Clusters {
		vAll.Clusters[i].Online = false
	}
	if ci := degradedPin(newPlanState(&vAll), &app); ci != -1 {
		t.Fatalf("degradedPin = %d with all clusters offline, want -1", ci)
	}
	// CPU clusters need a free core and memory-capped accelerators a
	// level-1 fit; exhaust both (an uncapped accelerator always qualifies,
	// so take those offline) and no eligible host remains.
	st2 := newPlanState(&v)
	for ci, cl := range st2.clusters {
		switch {
		case cl.Type.IsAccelerator() && cl.MemBytes == 0:
			st2.online[ci] = false
		case cl.Type.IsAccelerator():
			st2.freeMem[ci] = 0
		default:
			st2.freeCores[ci] = 0
		}
	}
	big := app
	big.ModelBytes = 64 << 20 // level-1 slice larger than any freed memory
	if ci := degradedPin(st2, &big); ci != -1 {
		t.Fatalf("degradedPin = %d with no seats, want -1", ci)
	}
}

// The elision key must separate planning states that differ only in
// cluster availability: a plan computed on healthy hardware is not valid
// once a cluster is gone, and one computed during the fault is not valid
// after the repair.
func TestPlanKeyIncludesAvailability(t *testing.T) {
	mgr := NewManager(Requirements{{"d", Requirement{MaxLatencyS: 0.060, Priority: 1}}})
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.060)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	sp, ok := mgr.policy.(sealedPolicy)
	if !ok {
		t.Fatal("heuristic manager has no elision key")
	}
	healthy, _ := mgr.fingerprint(e, sp)
	if err := e.SetClusterOnline("a7", false); err != nil {
		t.Fatal(err)
	}
	faulted, _ := mgr.fingerprint(e, sp)
	if faulted == healthy {
		t.Error("cluster failure did not change the elision key")
	}
	if err := e.SetClusterOnline("a7", true); err != nil {
		t.Fatal(err)
	}
	if repaired, _ := mgr.fingerprint(e, sp); repaired == faulted || repaired == healthy {
		t.Error("cluster repair did not produce a fresh elision key")
	}
}

// Manager in the loop across a fail/repair cycle: the app is rehosted
// during the window (tiny unhosted time), a recovery latency is recorded,
// and nothing is left unhosted at the end.
func TestManagerRecoversFromClusterFault(t *testing.T) {
	mgr := NewManager(Requirements{{"d", Requirement{Priority: 1}}})
	var failed, repaired bool
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !failed && e.Now() >= 2 {
				failed = true
				if err := e.SetClusterOnline("a15", false); err != nil {
					t.Error(err)
				}
			}
			if failed && !repaired && e.Now() >= 6 {
				repaired = true
				if err := e.SetClusterOnline("a15", true); err != nil {
					t.Error(err)
				}
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: ctrl,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("app unhosted at end of run")
	}
	rep := e.Report()
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d", rep.ClusterFails, rep.ClusterRepairs)
	}
	// The fault-triggered replan moves the app in the same instant, so no
	// meaningful unhosted time accrues across the 4 s outage.
	if rep.UnhostedS > 0.5 {
		t.Fatalf("UnhostedS = %.2f across a handled fault, want ~0", rep.UnhostedS)
	}
	// One fault burst, so one recovery latency.
	n, totalS := mgr.Recoveries()
	if n != 1 {
		t.Fatalf("%d recovery latencies recorded, want 1", n)
	}
	if totalS < 0 || totalS > 1 {
		t.Fatalf("recovery latency %.3f out of range", totalS)
	}
}

// A repair landing inside the fault-replan backoff is deferred, not lost:
// the repair event does not replan, and the tick retry picks it up once
// the backoff expires.
func TestRepairDuringBackoffStillReplans(t *testing.T) {
	if faultReplanBackoffS != 0.5 {
		t.Fatalf("timeline is written for a 0.5 s backoff, have %g s", faultReplanBackoffS)
	}
	mgr := NewManager(Requirements{{"d", Requirement{Priority: 1}}})
	var failed, repaired, retried bool
	repairDelta, retryDelta := -1, -1
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !failed && e.Now() >= 2 {
				failed = true
				if err := e.SetClusterOnline("a15", false); err != nil {
					t.Error(err)
				}
			}
			// Repair one tick after the fault, inside the backoff that the
			// fault's replan at t=2 opened.
			if failed && !repaired && e.Now() >= 2.25 {
				repaired = true
				if err := e.SetClusterOnline("a15", true); err != nil {
					t.Error(err)
				}
			}
			// The first tick at or past t=2.5 leaves the backoff and must
			// carry out the deferred replan.
			if repaired && !retried && e.Now() >= 2.5 {
				retried = true
				before := mgr.Plans()
				mgr.OnTick(e)
				retryDelta = mgr.Plans() - before
				return
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) {
			before := mgr.Plans()
			mgr.OnEvent(e, ev)
			if ev.Kind == sim.EvClusterRepair {
				repairDelta = mgr.Plans() - before
				if !mgr.faultReplanWanted {
					t.Errorf("repair at t=%.2f did not defer a replan", ev.TimeS)
				}
			}
		},
	}
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: ctrl,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if repairDelta != 0 {
		t.Errorf("repair event replanned %d times, want 0 (inside the backoff)", repairDelta)
	}
	if retryDelta != 1 {
		t.Errorf("t=2.5 tick replanned %d times, want 1 (the deferred repair)", retryDelta)
	}
	if mgr.faultReplanWanted {
		t.Error("deferred repair replan still pending at end of run")
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("app unhosted at end of run")
	}
	rep := e.Report()
	if rep.ClusterRepairs != 1 {
		t.Fatalf("repairs=%d, want 1", rep.ClusterRepairs)
	}
}

// A cluster failing while the platform is under thermal pressure: both
// disturbance paths are active at once and the manager must neither panic
// nor let the die run to critical.
func TestFaultDuringThermalAlarm(t *testing.T) {
	plat := hw.FlagshipSoC()
	mgr := NewManager(Requirements{
		{"d", Requirement{MaxLatencyS: 0.040, MinAccuracy: 0.70, Priority: 1}},
	})
	app := dnn("d", "cpu-big", 4, 0.040)
	app.Profile = perf.UniformProfile("hot", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	app.ModelBytes = 12 << 20 // levels 3-4 exceed the NPU: high accuracy needs CPU/GPU
	var warmed, failed, repaired bool
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !warmed && e.Now() >= 4 {
				warmed = true
				e.SetAmbient(50) // push the die over the throttle point
			}
			if !failed && e.Now() >= 8 {
				failed = true
				if err := e.SetClusterOnline("cpu-big", false); err != nil {
					t.Error(err)
				}
			}
			if failed && !repaired && e.Now() >= 14 {
				repaired = true
				if err := e.SetClusterOnline("cpu-big", true); err != nil {
					t.Error(err)
				}
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   plat,
		Apps:       []sim.App{app},
		Controller: ctrl,
		TickS:      0.25,
		LogEvents:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("app unhosted at end of run")
	}
	rep := e.Report()
	if rep.MaxTempC >= plat.Thermal.CriticalC {
		t.Fatalf("max temp %.1f reached critical during fault", rep.MaxTempC)
	}
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d", rep.ClusterFails, rep.ClusterRepairs)
	}
}
