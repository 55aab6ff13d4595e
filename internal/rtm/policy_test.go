package rtm

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/sim"
)

func TestPolicyRegistry(t *testing.T) {
	got := Policies()
	want := []string{"heuristic", "maxaccuracy", "minenergy"}
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in policy %q not registered (got %v)", name, got)
		}
	}
	if !sortedStrings(got) {
		t.Errorf("Policies() not sorted: %v", got)
	}

	p, err := NewPolicy("")
	if err != nil || p.Name() != DefaultPolicy {
		t.Fatalf(`NewPolicy("") = %v, %v; want the default %q`, p, err, DefaultPolicy)
	}
	for _, name := range want {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("no-such-policy"); err == nil {
		t.Fatal("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "heuristic") {
		t.Errorf("unknown-policy error %q does not list registered policies", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("heuristic", func() Policy { return heuristicPolicy{} })
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// testCluster is a hand-sized fixture for the planner-seam unit tests:
// 4 cores, three OPPs, 1e9 MAC/s per GHz with linear core scaling, so
// latency is macs / (1e9 · f · n/4) exactly.
func testCluster() *hw.Cluster {
	return &hw.Cluster{
		Name:  "cpu",
		Type:  hw.CoreA15,
		Cores: 4,
		OPPs:  []hw.OPP{{FreqGHz: 0.5, VoltageV: 0.9}, {FreqGHz: 1.0, VoltageV: 1.0}, {FreqGHz: 2.0, VoltageV: 1.2}},
		Power: hw.PowerParams{CeffMWPerV2GHz: 100, StaticMW: 50},

		RateMACsPerSecGHz: 1e9,
		ParallelAlpha:     1,
	}
}

// TestChooseOPP pins the pacing rule at the policy seam: lowest OPP at or
// above the committed floor that meets the budget. Before the policy
// extraction this decision was unreachable without a full engine run.
func TestChooseOPP(t *testing.T) {
	st := newPlanState(&View{Platform: &hw.Platform{Clusters: []*hw.Cluster{testCluster()}}})
	const macs = 100_000_000 // 0.2s / 0.1s / 0.05s at the three OPPs (4 cores)
	cases := []struct {
		name    string
		floor   int
		cores   int
		budgetS float64
		wantIdx int
		wantOK  bool
	}{
		{"loose budget paces to min OPP", 0, 4, 0.25, 0, true},
		{"exact fit at min OPP", 0, 4, 0.2, 0, true},
		{"mid budget picks mid OPP", 0, 4, 0.1, 1, true},
		{"tight budget needs max OPP", 0, 4, 0.05, 2, true},
		{"impossible budget fails", 0, 4, 0.04, 0, false},
		{"committed floor overrides pacing", 2, 4, 0.25, 2, true},
		{"fewer cores shift the choice", 0, 2, 0.25, 1, true}, // 2 cores: 0.4/0.2/0.1s
		{"fewer cores can fail", 0, 1, 0.05, 0, false},
	}
	for _, tc := range cases {
		idx, ok := chooseOPP(st, 0, tc.floor, tc.cores, macs, tc.budgetS)
		if idx != tc.wantIdx || ok != tc.wantOK {
			t.Errorf("%s: chooseOPP(floor=%d, cores=%d, budget=%gs) = (%d, %v), want (%d, %v)",
				tc.name, tc.floor, tc.cores, tc.budgetS, idx, ok, tc.wantIdx, tc.wantOK)
		}
	}
}

// TestCoreOptions pins the allocation enumeration at the policy seam,
// including the buffer-reuse contract: results are appended into the
// caller's scratch buffer, whose backing array must be reused when large
// enough.
func TestCoreOptions(t *testing.T) {
	cpu := testCluster()
	npu := &hw.Cluster{
		Name: "npu", Type: hw.CoreNPU, Cores: 1,
		OPPs:              []hw.OPP{{FreqGHz: 1, VoltageV: 1}},
		RateMACsPerSecGHz: 1e9, ParallelAlpha: 1,
	}
	ledger := func(cl *hw.Cluster, cores int, duty float64) *planState {
		return &planState{
			clusters:  []*hw.Cluster{cl},
			freeCores: []int{cores},
			freeDuty:  []float64{duty},
			freeMem:   []int64{0},
			oppNeed:   []int{0},
		}
	}
	cases := []struct {
		name string
		cl   *hw.Cluster
		st   *planState
		want []int
	}{
		{"all cores free, largest first", cpu, ledger(cpu, 4, 0), []int{4, 3, 2, 1}},
		{"partially consumed ledger", cpu, ledger(cpu, 2, 0), []int{2, 1}},
		{"exhausted CPU yields nothing", cpu, ledger(cpu, 0, 0), []int{}},
		{"over-consumed CPU yields nothing", cpu, ledger(cpu, -1, 0), []int{}},
		{"accelerator is all-or-nothing", npu, ledger(npu, 0, 0.4), []int{1}},
		{"saturated accelerator yields nothing", npu, ledger(npu, 0, 0), []int{}},
	}
	buf := make([]int, 0, 8)
	for _, tc := range cases {
		got := coreOptions(tc.cl, tc.st, 0, buf)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: coreOptions = %v, want %v", tc.name, got, tc.want)
		}
		if cap(got) > 0 && &got[:cap(got)][0] != &buf[:cap(buf)][0] {
			t.Errorf("%s: coreOptions reallocated instead of reusing the buffer", tc.name)
		}
	}
}

// runUnder runs one 4-second scenario under the named policy and returns
// the manager.
func runUnder(t *testing.T, policy string, reqs map[string]Requirement, apps []sim.App) *Manager {
	t.Helper()
	p, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(reqs)
	mgr.SetPolicy(p)
	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       apps,
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestPoliciesDisagree: on an unconstrained workload (no accuracy floor,
// generous period) the three built-in strategies must pick visibly
// different operating points — minimal level paced for the heuristic,
// maximal level for maxaccuracy, minimal level at the hosting cluster's
// top OPP for minenergy.
func TestPoliciesDisagree(t *testing.T) {
	apps := []sim.App{dnn("d", "a15", 4, 1.0)}

	heur := runUnder(t, "heuristic", nil, apps).LastPlan()
	maxacc := runUnder(t, "maxaccuracy", nil, apps).LastPlan()
	race := runUnder(t, "minenergy", nil, apps).LastPlan()
	if len(heur) != 1 || len(maxacc) != 1 || len(race) != 1 {
		t.Fatalf("plan sizes: %d/%d/%d, want 1 each", len(heur), len(maxacc), len(race))
	}

	if heur[0].Level != 1 {
		t.Errorf("heuristic level = %d, want 1 (minimal level meeting no floor)", heur[0].Level)
	}
	if maxacc[0].Level != 4 {
		t.Errorf("maxaccuracy level = %d, want 4 (highest level that fits)", maxacc[0].Level)
	}
	if race[0].Level != 1 {
		t.Errorf("minenergy level = %d, want 1", race[0].Level)
	}

	raceCl := hw.OdroidXU3().Cluster(race[0].Placement.Cluster)
	if race[0].OPPIndex != len(raceCl.OPPs)-1 {
		t.Errorf("minenergy OPP = %d on %s, want the top index %d (race to idle)",
			race[0].OPPIndex, raceCl.Name, len(raceCl.OPPs)-1)
	}
	if maxacc[0].Accuracy < heur[0].Accuracy {
		t.Errorf("maxaccuracy accuracy %.3f below heuristic %.3f", maxacc[0].Accuracy, heur[0].Accuracy)
	}
}

// TestManagerPolicyPlumbing: PolicyName reflects SetPolicy, nil is
// ignored, and swapping schedules a replan at the next tick.
func TestManagerPolicyPlumbing(t *testing.T) {
	mgr := NewManager(nil)
	if mgr.PolicyName() != DefaultPolicy {
		t.Fatalf("fresh manager policy %q, want %q", mgr.PolicyName(), DefaultPolicy)
	}
	mgr.SetPolicy(nil)
	if mgr.PolicyName() != DefaultPolicy {
		t.Fatal("SetPolicy(nil) replaced the policy")
	}
	p, err := NewPolicy("minenergy")
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetPolicy(p)
	if mgr.PolicyName() != "minenergy" {
		t.Fatalf("policy %q after SetPolicy", mgr.PolicyName())
	}

	e, err := sim.New(sim.Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []sim.App{dnn("d", "a15", 4, 0.5)},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	plans := mgr.Plans()
	heur, _ := NewPolicy("heuristic")
	mgr.SetPolicy(heur)
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if mgr.Plans() <= plans {
		t.Error("policy swap did not trigger a replan on the next tick")
	}
}

// vandalPolicy mutates everything it can reach in the view before
// delegating to the heuristic — a worst-case tenant for the defensive-copy
// audit.
type vandalPolicy struct{}

func (vandalPolicy) Name() string { return "vandal" }
func (vandalPolicy) Plan(v View) []Assignment {
	plan := heuristicPolicy{}.Plan(v)
	for name := range v.Reqs {
		v.Reqs[name] = Requirement{MaxLatencyS: 1e-9, MinAccuracy: 2, Priority: -1}
	}
	for i := range v.Apps {
		v.Apps[i].Name = "corrupted"
		v.Apps[i].Level = 99
		v.Apps[i].Placement = sim.Placement{Cluster: "corrupted", Cores: 99}
	}
	for i := range v.Clusters {
		v.Clusters[i].Name = "corrupted"
		v.Clusters[i].OPPIndex = 99
	}
	return plan
}

// TestViewDefensiveCopies is the LastPlan-style audit from the policy
// seam: a policy that vandalises its View — and a caller that vandalises
// LastPlan/LastView — must not be able to corrupt manager or engine
// state, because everything handed out is a copy.
func TestViewDefensiveCopies(t *testing.T) {
	reqs := map[string]Requirement{"d": {MinAccuracy: 0.70, Priority: 1}}
	run := func(p Policy) (*Manager, *sim.Engine) {
		mgr := NewManager(reqs)
		if p != nil {
			mgr.SetPolicy(p)
		}
		e, err := sim.New(sim.Config{
			Platform:   hw.OdroidXU3(),
			Apps:       []sim.App{dnn("d", "a15", 4, 1.0)},
			Controller: mgr,
			TickS:      0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		return mgr, e
	}

	clean, _ := run(nil)
	vandal, e := run(vandalPolicy{})

	// The manager's requirement store must be untouched by the vandal.
	if got := vandal.Requirement("d", 1.0); got != clean.Requirement("d", 1.0) {
		t.Errorf("policy mutated manager requirements: %+v", got)
	}
	// The engine must still know the app under its real name and level.
	info, err := e.App("d")
	if err != nil {
		t.Fatalf("engine lost the app after a vandal plan: %v", err)
	}
	if info.Level != 4 {
		t.Errorf("engine level %d after vandal run, want 4", info.Level)
	}
	// The vandal's *planning* is the heuristic's: same assignments.
	cj, _ := json.Marshal(clean.LastPlan())
	vj, _ := json.Marshal(vandal.LastPlan())
	if string(cj) != string(vj) {
		t.Errorf("vandal plan diverged from heuristic:\n%s\n%s", cj, vj)
	}

	// LastPlan and LastView hand out copies.
	p1 := vandal.LastPlan()
	if len(p1) == 0 {
		t.Fatal("no plan recorded")
	}
	p1[0].App = "corrupted"
	p1[0].Level = 99
	if vandal.LastPlan()[0].App == "corrupted" {
		t.Error("LastPlan exposes internal plan storage")
	}
	v1 := vandal.LastView()
	if len(v1.Apps) == 0 || len(v1.Reqs) == 0 {
		t.Fatal("LastView empty")
	}
	v1.Apps[0].Name = "corrupted"
	v1.Reqs["d"] = Requirement{Priority: -99}
	v1.Clusters[0].Name = "corrupted"
	v2 := vandal.LastView()
	if v2.Apps[0].Name == "corrupted" || v2.Reqs["d"].Priority == -99 || v2.Clusters[0].Name == "corrupted" {
		t.Error("LastView exposes internal view storage")
	}
}

// TestHeuristicPlanMatchesLegacyBehaviour re-runs the scenarios the old
// monolithic Manager tests pinned, through the extracted policy: the
// refactor keeps the exact decisions (the fleet golden report checks this
// at scale; this is the fast in-package guard).
func TestHeuristicPlanMatchesLegacyBehaviour(t *testing.T) {
	// Accuracy floor 0.70 on a 1 s period → level 4 on the cheap a7.
	mgr := runUnder(t, "heuristic", map[string]Requirement{
		"d": {MinAccuracy: 0.70, Priority: 1},
	}, []sim.App{dnn("d", "a15", 4, 1.0)})
	plan := mgr.LastPlan()
	if len(plan) != 1 || plan[0].Level != 4 || plan[0].Placement.Cluster != "a7" {
		t.Fatalf("plan = %+v, want level 4 on a7", plan)
	}
	if plan[0].Pass != 1 {
		t.Errorf("pass = %d, want 1", plan[0].Pass)
	}
}

// TestViewReqDefaults: a hand-built sparse view resolves latency budgets
// from the frame period.
func TestViewReqDefaults(t *testing.T) {
	v := View{Reqs: map[string]Requirement{"a": {MinAccuracy: 0.5}}}
	app := sim.AppInfo{Name: "a", PeriodS: 0.25}
	if got := v.Req(app); got.MaxLatencyS != 0.25 || got.MinAccuracy != 0.5 {
		t.Errorf("Req = %+v, want MaxLatencyS 0.25 from the period", got)
	}
	other := sim.AppInfo{Name: "missing", PeriodS: 0.1}
	if got := v.Req(other); got.MaxLatencyS != 0.1 {
		t.Errorf("Req of unknown app = %+v, want period default", got)
	}
}
