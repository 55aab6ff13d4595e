package rtm

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// reuseScenario is a dynamic managed run shared by the elision and
// equivalence tests: two DNNs with real contention, a render app arriving
// mid-run, an ambient jump driving thermal pressure, and a requirement
// change — every replan trigger the manager has. Wrapping pol in unsealed
// gives the reuse-off arm. It also returns the manager's LastView after
// every replan, in replan order.
func reuseScenario(t *testing.T, pol Policy) (*Manager, sim.Report, []View) {
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
	mgr := NewManager(Requirements{
		{"dnn1", Requirement{MinAccuracy: 0.70, Priority: 1}},
		{"dnn2", Requirement{MinAccuracy: 0.70, Priority: 2}},
	})
	mgr.SetPolicy(pol)
	hot, relaxed := false, false
	nextForce := 2.0
	// Each manager call replans at most once; call records the view of
	// that replan.
	var views []View
	call := func(f func()) {
		plans := mgr.Plans()
		f()
		if mgr.Plans() > plans {
			views = append(views, mgr.LastView())
		}
	}
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
				call(func() { mgr.Replan(e) })
			}
			call(func() { mgr.OnTick(e) })
		},
		event: func(e *sim.Engine, ev sim.Event) { call(func() { mgr.OnEvent(e, ev) }) },
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
	return mgr, e.Report(), views
}

func testPolicies(t testing.TB) map[string]func() Policy {
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
		table.Observe(stateOf("h2p1s3a1"), 0, 0.1)
		table.Observe(stateOf("h2p1s3a2"), 1, 0.2)
		table.Observe(stateOf("h1p1s3a2"), 1, 0.1)
		table.Finalise()
		p, err := NewLearnedPolicy("learned:test", table)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The selector a trainer explores through, with a choice that is a
	// fixed function of the state.
	selector := func() Policy {
		p, err := NewArmSelector("selector", []string{"heuristic", "maxaccuracy", "minenergy"}, func(s State) int {
			return int(s % 3)
		})
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
		"selector":    selector,
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
// planning every replan fresh, and so must LastView after every replan,
// for every built-in policy, a trained learned policy and an exploring
// selector, whose manager must elide none of its replans.
func TestPlanReuseEquivalence(t *testing.T) {
	for name, mk := range testPolicies(t) {
		t.Run(name, func(t *testing.T) {
			mgrOff, repOff, viewsOff := reuseScenario(t, unsealed{mk()})
			mgrOn, repOn, viewsOn := reuseScenario(t, mk())

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
			if len(viewsOn) != len(viewsOff) {
				t.Fatalf("%d views recorded with reuse, %d without", len(viewsOn), len(viewsOff))
			}
			for i := range viewsOn {
				if !reflect.DeepEqual(viewsOn[i], viewsOff[i]) {
					t.Fatalf("replan %d (t=%gs): LastView with reuse differs from planning fresh", i, viewsOff[i].NowS)
				}
			}
			offStats := mgrOff.PlanStats()
			if offStats.Elided != 0 {
				t.Errorf("unsealed policy's manager reused work: %+v", offStats)
			}
			onStats := mgrOn.PlanStats()
			if name == "selector" {
				if onStats.Elided != 0 {
					t.Errorf("exploring selector's manager elided replans: %+v", onStats)
				}
			} else if onStats.Elided == 0 {
				t.Errorf("no replans elided in a 30 s steady-heavy run: %+v", onStats)
			}
		})
	}
}

// viewGuard wraps a sealed policy and checks every plan it makes: the
// view must be, after planning, deep-equal to a clone taken before. A
// sealed policy plans over the manager's view in place, and actuation and
// LastView read that view afterwards.
type viewGuard struct {
	Policy
	sp    sealedPolicy
	plans int
	wrote string // the first plan that wrote its view, or ""
}

func guard(p Policy) *viewGuard { return &viewGuard{Policy: p, sp: sealedOf(p)} }

func (g *viewGuard) planInto(v *View, sc *planScratch) []Assignment {
	before := v.Clone()
	plan := g.sp.planInto(v, sc)
	g.plans++
	if g.wrote == "" && !reflect.DeepEqual(*v, before) {
		g.wrote = fmt.Sprintf("plan %d (t=%gs)", g.plans, v.NowS)
	}
	return plan
}

func (g *viewGuard) dynFingerprint(v *View) (uint64, bool) { return g.sp.dynFingerprint(v) }

// TestSealedPoliciesLeaveViewUnwritten: every built-in and a learned
// table plan over the manager's view without writing it, on every replan
// of the reuse scenario. A sealed policy that writes its view fails the
// same check.
func TestSealedPoliciesLeaveViewUnwritten(t *testing.T) {
	for name, mk := range testPolicies(t) {
		t.Run(name, func(t *testing.T) {
			g := guard(mk())
			if g.sp == nil {
				t.Fatal("policy is not sealed")
			}
			mgr, _, _ := reuseScenario(t, g)
			if g.plans == 0 || g.plans+mgr.PlanStats().Elided != mgr.Plans() {
				t.Fatalf("%d of %d replans planned through the guard, %d elided", g.plans, mgr.Plans(), mgr.PlanStats().Elided)
			}
			if g.wrote != "" {
				t.Errorf("%s wrote the view it planned over", g.wrote)
			}
		})
	}
	t.Run("scribbler", func(t *testing.T) {
		g := guard(scribbler{})
		v := benchView(t)
		g.planInto(&v, &planScratch{})
		if g.wrote == "" {
			t.Error("a policy that writes its view passed the check")
		}
	})
}

// scribbler is a sealed policy that plans as the heuristic does and then
// writes one app's level in the view it planned over.
type scribbler struct{ externalPolicy }

func (scribbler) planInto(v *View, sc *planScratch) []Assignment {
	plan := heuristicPolicy.planInto(v, sc)
	v.Apps[0].Level++
	return plan
}

func (scribbler) dynFingerprint(*View) (uint64, bool) { return 0, true }

// TestReplanElisionSavesPolicyCalls pins the mechanism (not just the
// outcome): a counting policy must be invoked strictly fewer times with
// reuse on, while the manager reports the same number of replans.
func TestReplanElisionSavesPolicyCalls(t *testing.T) {
	calls := func(wrap func(*countingHeuristic) Policy) (int, int) {
		cp := &countingHeuristic{}
		mgr, _, _ := reuseScenario(t, wrap(cp))
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
// takes the heuristic's dynamic fingerprint, so it participates in elision
// exactly like the real built-in.
type countingHeuristic struct{ calls int }

func (p *countingHeuristic) dynFingerprint(v *View) (uint64, bool) {
	return heuristicPolicy.dynFingerprint(v)
}

func (p *countingHeuristic) Name() string { return "counting-heuristic" }

func (p *countingHeuristic) Plan(v View) []Assignment {
	p.calls++
	return heuristicPolicy.Plan(v)
}

func (p *countingHeuristic) planInto(v *View, sc *planScratch) []Assignment {
	p.calls++
	return heuristicPolicy.planInto(v, sc)
}

// TestArmSelectorPlansEveryReplan: the selector a trainer explores
// through is never elided, so its choice is asked exactly once per
// Replan, even in a run the heuristic alone elides replans of. Always
// choosing the heuristic, it plans that run as the heuristic does.
func TestArmSelectorPlansEveryReplan(t *testing.T) {
	calls := 0
	sel, err := NewArmSelector("explorer", []string{"heuristic", "minenergy"}, func(State) int {
		calls++
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, rep, _ := reuseScenario(t, sel)
	heur, heurRep, _ := reuseScenario(t, heuristicPolicy)
	if heur.PlanStats().Elided == 0 {
		t.Fatalf("the heuristic elides no replan of the scenario: %+v", heur.PlanStats())
	}
	if s := mgr.PlanStats(); s.Elided != 0 || calls != s.Plans || s.Plans != heur.Plans() {
		t.Errorf("selector asked %d times over %+v, the heuristic's run %d replans; want one ask per replan and none elided",
			calls, s, heur.Plans())
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(heurRep)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("a selector always choosing the heuristic ran differently from the heuristic")
	}
}

// TestThirdPartyPolicyNeverReused: a policy outside this package's sealed
// interface must plan fresh on every replan — elision is opt-in for
// exactly-known read-sets only.
func TestThirdPartyPolicyNeverReused(t *testing.T) {
	mgr, _, _ := reuseScenario(t, externalPolicy{})
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
	return heuristicPolicy.Plan(v)
}

// failingApps returns one short-lived DNN per entry of misses that fails
// exactly that many frames (0, 1 or 2) in the half second before at[i],
// alone on a15 at its lowest OPP. Each runs at a period P of 3/4 of its
// job latency L: its first job runs past its next release, which is
// dropped, and finishes late at L, a miss. Stopping it between P and L
// cancels the late job, leaving the drop alone; stopping it between L
// and 2P keeps both failures.
func failingApps(t *testing.T, at []float64, misses []int) []sim.App {
	t.Helper()
	probe := dnn("probe", "a15", 4, 100)
	probe.Level = 1
	e, err := sim.New(sim.Config{Platform: hw.OdroidXU3(), Apps: []sim.App{probe}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	info, err := e.App("probe")
	if err != nil {
		t.Fatal(err)
	}
	l := info.AvgLatency
	p := 0.75 * l
	if l == 0 || l+p > 0.5 {
		t.Fatalf("probe latency %g s does not fit the half-second windows", l)
	}
	var apps []sim.App
	for i, k := range misses {
		if k == 0 {
			continue
		}
		a := probe
		a.Name, a.PeriodS, a.StartS = fmt.Sprintf("fail%d", i), p, at[i]-0.5
		a.StopS = a.StartS + (p+l)/2
		if k == 2 {
			a.StopS = a.StartS + (l+2*p)/2
		}
		apps = append(apps, a)
	}
	return apps
}

// TestMissReplanBackoff is the table-driven contract for the
// missReplanThreshold (2) × missReplanBackoffS (2 s) interaction: when a
// tick replans on accumulated misses, how the backoff window suppresses
// and defers miss-triggered replans, and how every replan resets the
// count. The miss backoff counts from t=0, so the window is open from t=2. The
// misses are real: failingApps makes the engine fail each step's frames
// before its tick.
func TestMissReplanBackoff(t *testing.T) {
	if missReplanThreshold != 2 || missReplanBackoffS != 2 {
		t.Fatalf("cases are written for threshold 2 and backoff 2 s, have %d and %g s",
			missReplanThreshold, missReplanBackoffS)
	}
	type step struct {
		at      float64 // advance the engine to this time
		misses  int     // frames the engine fails before the tick
		replans bool    // whether the tick must replan
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name:  "below threshold never replans",
			steps: []step{{at: 3, misses: 1}, {at: 6, misses: 0}},
		},
		{
			name:  "threshold met outside backoff replans",
			steps: []step{{at: 2, misses: 2, replans: true}}, // 2-0 ≥ 2
		},
		{
			name: "threshold met inside backoff window is deferred",
			steps: []step{
				{at: 1, misses: 2}, // 1-0 < 2
				// Misses are retained, not dropped: once the window passes
				// the deferred replan fires without new misses.
				{at: 2.5, misses: 0, replans: true},
			},
		},
		{
			name: "replan resets the miss counter",
			steps: []step{
				{at: 2, misses: 2, replans: true},
				{at: 5, misses: 1},                // past the backoff, but one fresh miss < threshold
				{at: 6, misses: 1, replans: true}, // second fresh miss
			},
		},
		{
			name: "backoff rate-limits a miss storm",
			steps: []step{
				{at: 2, misses: 2, replans: true}, // 2-0 ≥ 2
				{at: 3, misses: 2},                // 3-2 < 2: suppressed
				{at: 4, misses: 0, replans: true}, // 4-2 ≥ 2: deferred fires
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var at []float64
			var misses []int
			for _, s := range tc.steps {
				at, misses = append(at, s.at), append(misses, s.misses)
			}
			// The manager is driven by hand, not as the engine's
			// controller, so only the failed frames trigger replans; no
			// DNN runs at a tick, so a replan moves no knob.
			e, err := sim.New(sim.Config{Platform: hw.OdroidXU3(), Apps: failingApps(t, at, misses)})
			if err != nil {
				t.Fatal(err)
			}
			mgr := NewManager(nil)
			for i, s := range tc.steps {
				failed := e.FailedFrames()
				if err := e.Run(s.at); err != nil {
					t.Fatal(err)
				}
				if got := e.FailedFrames() - failed; got != s.misses {
					t.Fatalf("step %d (t=%.1f): the engine failed %d frames, want %d", i, s.at, got, s.misses)
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

// TestMissCountFollowsEngine pins which failed frames a manager counts
// when it ticks on an engine other than the one it last planned on: all
// of that engine's since its Reset, never a difference against the
// other engine's count. Once it plans on an engine, it counts from that
// plan. The ticks are 2 s apart, so the miss backoff never holds one back.
func TestMissCountFollowsEngine(t *testing.T) {
	at := []float64{2, 4, 6, 8}
	engine := func(misses ...int) *sim.Engine {
		e, err := sim.New(sim.Config{Platform: hw.OdroidXU3(), Apps: failingApps(t, at, misses)})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := engine(2, 2, 0, 0), engine(0, 0, 2, 0)
	mgr := NewManager(nil)
	tick := func(e *sim.Engine, atS float64, want bool) {
		t.Helper()
		if err := e.Run(atS); err != nil {
			t.Fatal(err)
		}
		before := mgr.Plans()
		mgr.OnTick(e)
		if got := mgr.Plans() > before; got != want {
			t.Fatalf("t=%g: replanned=%v, want %v (engine failed %d frames)", atS, got, want, e.FailedFrames())
		}
	}
	tick(a, 2, true)  // a failed 2: plans on a, at a's count 2
	tick(a, 4, true)  // 2 more since: plans on a, at a's count 4
	tick(b, 6, true)  // b failed 2 since its Reset, though fewer than a's 4
	tick(b, 8, false) // none since the plan on b
	tick(a, 8, true)  // back on a, which failed nothing since its plan: a's 4 count again
}
