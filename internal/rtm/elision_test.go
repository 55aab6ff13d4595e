package rtm

import (
	"encoding/json"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// reuseScenario is a dynamic managed run shared by the elision and
// equivalence tests: two DNNs with real contention, a render app arriving
// mid-run, an ambient jump driving thermal pressure, and a requirement
// change — every replan trigger the manager has. Wrapping pol in unsealed
// gives the reuse-off arm.
func reuseScenario(t *testing.T, pol Policy) (*Manager, sim.Report) {
	t.Helper()
	prof := perf.UniformProfile("reuse", 7_000_000, 7<<20, perf.PaperAccuracies, nil)
	apps := []sim.App{
		{
			Name: "dnn1", Kind: sim.KindDNN, Profile: prof, Level: 4,
			PeriodS: 0.040, ModelBytes: 7 << 20,
			Placement: sim.Placement{Cluster: "npu"},
		},
		{
			Name: "dnn2", Kind: sim.KindDNN, Profile: prof, Level: 4,
			PeriodS: 1.0 / 60, ModelBytes: 7 << 20, StartS: 5,
			Placement: sim.Placement{Cluster: "cpu-big", Cores: 4},
		},
		{
			Name: "vr", Kind: sim.KindRender, Util: 0.75, StartS: 12,
			Placement: sim.Placement{Cluster: "gpu"},
		},
	}
	mgr := NewManager(map[string]Requirement{
		"dnn1": {MinAccuracy: 0.70, Priority: 1},
		"dnn2": {MinAccuracy: 0.70, Priority: 2},
	})
	mgr.SetPolicy(pol)
	hot, relaxed := false, false
	nextForce := 2.0
	ctrl := ctrlFuncs{
		tick: func(e *sim.Engine) {
			if !hot && e.Now() >= 16 {
				hot = true
				e.SetAmbient(40)
			}
			if !relaxed && e.Now() >= 22 {
				relaxed = true
				mgr.SetRequirement("dnn2", Requirement{MinAccuracy: 0.60, Priority: 2})
			}
			// Force a replan every 2 s regardless of pending state: this is
			// the redundant-work pattern elision exists for, and it runs
			// identically in both arms so Plans() stays comparable.
			if e.Now() >= nextForce {
				nextForce += 2
				mgr.Replan(e)
			}
			mgr.OnTick(e)
		},
		event: func(e *sim.Engine, ev sim.Event) { mgr.OnEvent(e, ev) },
	}
	e, err := sim.New(sim.Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       apps,
		Controller: ctrl,
		TickS:      0.25,
		LogEvents:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	return mgr, e.Report()
}

func testPolicies(t *testing.T) map[string]func() Policy {
	t.Helper()
	mk := func(name string) func() Policy {
		return func() Policy {
			p, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	learned := func() Policy {
		table := NewLearnedTable([]string{"heuristic", "minenergy"})
		table.Observe("h2p1s3a1", 0, 0.1)
		table.Observe("h2p1s3a2", 1, 0.2)
		table.Observe("h1p1s3a2", 1, 0.1)
		table.Finalise()
		p, err := NewLearnedPolicy("learned:test", table)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]func() Policy{
		"heuristic":   mk("heuristic"),
		"maxaccuracy": mk("maxaccuracy"),
		"minenergy":   mk("minenergy"),
		"learned":     learned,
	}
}

// unsealed hides a policy behind the public Policy contract: the struct
// promotes only Name and Plan, so the sealed elision seam and the scratch
// planner are out of reach and every Replan plans fresh through Plan. It is
// the reuse-off reference arm.
type unsealed struct{ Policy }

// TestPlanReuseEquivalence is replan elision's correctness property at the
// manager layer: with replan elision on the full simulation
// report — every event, stat and temperature — must be byte-identical to
// planning every replan fresh, for every built-in policy and a trained
// learned policy.
func TestPlanReuseEquivalence(t *testing.T) {
	for name, mk := range testPolicies(t) {
		t.Run(name, func(t *testing.T) {
			mgrOff, repOff := reuseScenario(t, unsealed{mk()})
			mgrOn, repOn := reuseScenario(t, mk())

			off, err := json.Marshal(repOff)
			if err != nil {
				t.Fatal(err)
			}
			on, err := json.Marshal(repOn)
			if err != nil {
				t.Fatal(err)
			}
			if string(on) != string(off) {
				t.Error("reuse-on report differs from reuse-off report")
			}
			if mgrOn.Plans() != mgrOff.Plans() {
				t.Errorf("plans %d with reuse, %d without (must match: elided plans still count)",
					mgrOn.Plans(), mgrOff.Plans())
			}
			offStats := mgrOff.PlanStats()
			if offStats.Elided != 0 {
				t.Errorf("unsealed policy's manager reused work: %+v", offStats)
			}
			onStats := mgrOn.PlanStats()
			if onStats.Elided == 0 {
				t.Errorf("no replans elided in a 30 s steady-heavy run: %+v", onStats)
			}
		})
	}
}

// TestReplanElisionSavesPolicyCalls pins the mechanism (not just the
// outcome): a counting policy must be invoked strictly fewer times with
// reuse on, while the manager reports the same number of replans.
func TestReplanElisionSavesPolicyCalls(t *testing.T) {
	calls := func(wrap func(*countingHeuristic) Policy) (int, int) {
		cp := &countingHeuristic{}
		mgr, _ := reuseScenario(t, wrap(cp))
		return cp.calls, mgr.Plans()
	}
	offCalls, offPlans := calls(func(cp *countingHeuristic) Policy { return unsealed{cp} })
	onCalls, onPlans := calls(func(cp *countingHeuristic) Policy { return cp })
	if onPlans != offPlans {
		t.Fatalf("plans diverged: %d vs %d", onPlans, offPlans)
	}
	if onCalls >= offCalls {
		t.Fatalf("reuse saved no policy invocations: %d on vs %d off", onCalls, offCalls)
	}
}

// countingHeuristic wraps the heuristic with an invocation counter. It
// embeds epochKeyed, so it participates in elision exactly like the real
// built-in.
type countingHeuristic struct {
	epochKeyed
	calls int
	inner heuristicPolicy
}

func (p *countingHeuristic) Name() string { return "counting-heuristic" }

func (p *countingHeuristic) Plan(v View) []Assignment {
	p.calls++
	return p.inner.Plan(v)
}

func (p *countingHeuristic) planInto(v *View, sc *planScratch) []Assignment {
	p.calls++
	return p.inner.planInto(v, sc)
}

// TestThirdPartyPolicyNeverReused: a policy outside this package's sealed
// interface must plan fresh on every replan — elision is opt-in for
// exactly-known read-sets only.
func TestThirdPartyPolicyNeverReused(t *testing.T) {
	mgr, _ := reuseScenario(t, externalPolicy{})
	s := mgr.PlanStats()
	if s.Elided != 0 {
		t.Fatalf("third-party policy was reused: %+v", s)
	}
	if s.Plans == 0 {
		t.Fatal("scenario never planned")
	}
}

// externalPolicy stands in for a third-party Policy: it deliberately does
// not (and cannot, outside the package) implement the sealed seam.
type externalPolicy struct{}

func (externalPolicy) Name() string { return "external" }

func (externalPolicy) Plan(v View) []Assignment {
	return heuristicPolicy{}.Plan(v)
}

// TestMissReplanBackoff is the table-driven contract for the
// MissReplanThreshold × MissReplanBackoffS interaction: when a tick
// replans on accumulated misses, how the backoff window suppresses and
// defers miss-triggered replans, and how every replan resets the counter.
func TestMissReplanBackoff(t *testing.T) {
	type step struct {
		at      float64 // advance the engine to this time
		misses  int     // deadline misses injected before the tick
		replans bool    // whether the tick must replan
	}
	cases := []struct {
		name      string
		threshold int
		backoff   float64
		steps     []step
	}{
		{
			name:      "below threshold never replans",
			threshold: 2, backoff: 0,
			steps: []step{{at: 1, misses: 1}, {at: 2, misses: 0}},
		},
		{
			name:      "threshold met outside backoff replans",
			threshold: 2, backoff: 0,
			steps: []step{{at: 1, misses: 2, replans: true}},
		},
		{
			name:      "threshold met inside backoff window is deferred",
			threshold: 2, backoff: 2,
			steps: []step{
				// lastMissPlan starts at 0: t=1 is inside the window.
				{at: 1, misses: 2},
				// Misses are retained, not dropped: once the window passes
				// the deferred replan fires without new misses.
				{at: 2.5, misses: 0, replans: true},
			},
		},
		{
			name:      "replan resets the miss counter",
			threshold: 2, backoff: 0,
			steps: []step{
				{at: 1, misses: 2, replans: true},
				{at: 2, misses: 1},                // one fresh miss < threshold
				{at: 3, misses: 1, replans: true}, // second fresh miss
			},
		},
		{
			name:      "backoff rate-limits a miss storm",
			threshold: 1, backoff: 3,
			steps: []step{
				{at: 3, misses: 1, replans: true}, // 3-0 ≥ 3
				{at: 4, misses: 1},                // 4-3 < 3: suppressed
				{at: 6, misses: 0, replans: true}, // 6-3 ≥ 3: deferred fires
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A minimal engine supplies the clock and thermal reads OnTick
			// needs; the manager is driven by hand, not as the controller,
			// so only the injected misses trigger replans.
			e, err := sim.New(sim.Config{
				Platform: hw.OdroidXU3(),
				Apps:     []sim.App{dnn("d", "a15", 4, 0.5)},
				TickS:    0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			mgr := NewManager(nil)
			mgr.MissReplanThreshold = tc.threshold
			mgr.MissReplanBackoffS = tc.backoff
			for i, s := range tc.steps {
				if err := e.Run(s.at); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < s.misses; j++ {
					mgr.OnEvent(e, sim.Event{TimeS: e.Now(), Kind: sim.EvDeadlineMiss})
				}
				before := mgr.Plans()
				mgr.OnTick(e)
				if got := mgr.Plans() > before; got != s.replans {
					t.Fatalf("step %d (t=%.1f): replanned=%v, want %v", i, s.at, got, s.replans)
				}
			}
		})
	}
}
