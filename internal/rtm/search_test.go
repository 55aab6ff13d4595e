package rtm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// searchViews builds the planning inputs the search tests share. For every
// catalog platform and each seed it generates a random scenario — one to
// four DNNs with random profiles, periods, budgets, floors and priorities,
// plus a render and a background co-runner half the time — and runs it
// under the default manager for two simulated seconds at a random
// ambient. Each scenario yields three views: as the manager last saw it,
// under one to three steps of thermal pressure, and that pressured view
// with one cluster offline.
func searchViews(tb testing.TB, seeds int) []View {
	tb.Helper()
	cat := hw.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	var views []View
	for _, name := range names {
		plat := cat[name]
		for seed := 1; seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			apps, reqs := randomScenario(rng, plat)
			mgr := NewManager(reqs)
			e, err := sim.New(sim.Config{Platform: plat, Apps: apps, Controller: mgr, TickS: 0.25})
			if err != nil {
				tb.Fatalf("%s seed %d: %v", name, seed, err)
			}
			e.SetAmbient(20 + 40*rng.Float64())
			if err := e.Run(2); err != nil {
				tb.Fatalf("%s seed %d: %v", name, seed, err)
			}
			views = append(views, mgr.buildView(e).Clone())
			mgr.pressure = 1 + rng.Intn(3)
			views = append(views, mgr.buildView(e).Clone())
			if err := e.SetClusterOnline(plat.Clusters[rng.Intn(len(plat.Clusters))].Name, false); err != nil {
				tb.Fatal(err)
			}
			views = append(views, mgr.buildView(e).Clone())
		}
	}
	return views
}

// randomScenario draws the apps and requirements of one searchViews
// scenario on plat.
func randomScenario(rng *rand.Rand, plat *hw.Platform) ([]sim.App, map[string]Requirement) {
	pick := func() (*hw.Cluster, int) {
		cl := plat.Clusters[rng.Intn(len(plat.Clusters))]
		if cl.Type.IsAccelerator() {
			return cl, 0
		}
		return cl, 1 + rng.Intn(cl.Cores)
	}
	var apps []sim.App
	reqs := map[string]Requirement{}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		name := fmt.Sprintf("dnn%d", i)
		levels := 2 + rng.Intn(4)
		accs := make([]float64, levels)
		acc := 0.5
		for l := range accs {
			acc += 0.01 + 0.06*rng.Float64()
			accs[l] = acc
		}
		macs := int64(500_000 + rng.Intn(20_000_000))
		cl, cores := pick()
		period := 1 / (5 + 55*rng.Float64())
		apps = append(apps, sim.App{
			Name: name, Kind: sim.KindDNN,
			Profile:    perf.UniformProfile(name, macs, int64(1+rng.Intn(8))<<20, accs, nil),
			Level:      1 + rng.Intn(levels),
			PeriodS:    period,
			ModelBytes: int64(1+rng.Intn(12)) << 20,
			Placement:  sim.Placement{Cluster: cl.Name, Cores: cores},
		})
		req := Requirement{Priority: 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 {
			req.MaxLatencyS = period * (0.3 + 0.7*rng.Float64())
		}
		if rng.Intn(3) > 0 {
			req.MinAccuracy = accs[rng.Intn(levels)]
		}
		reqs[name] = req
	}
	if rng.Intn(2) == 0 {
		cl, cores := pick()
		apps = append(apps, sim.App{Name: "render", Kind: sim.KindRender, Util: 0.2 + 0.6*rng.Float64(),
			Placement: sim.Placement{Cluster: cl.Name, Cores: cores}})
	}
	if rng.Intn(2) == 0 {
		cl, cores := pick()
		apps = append(apps, sim.App{Name: "bg", Kind: sim.KindBackground, Util: 0.2 + 0.6*rng.Float64(),
			Placement: sim.Placement{Cluster: cl.Name, Cores: cores}})
	}
	return apps, reqs
}

// TestPlannerWorkCounts counts the work each built-in policy does planning
// the 72 views of searchViews(8): candidates evaluated (evalCandidate
// calls) and latencies computed (latencyS calls, inside evalCandidate and
// out). Before the search was pruned the counts were
//
//	heuristic    1 804 candidates, 20 580 latencies
//	maxaccuracy 22 025 candidates, 21 993 latencies
//	minenergy    3 924 candidates,  3 938 latencies
//
// maxaccuracy's downward OPP scan now stops at the first latency, duty
// or memory failure, and chooseOPP returns after one latency when the top
// OPP misses. A change that moves a count changes how much searching the
// planners do and should say so.
func TestPlannerWorkCounts(t *testing.T) {
	views := searchViews(t, 8)
	for _, want := range []struct {
		policy           string
		evals, latencies uint64
	}{
		{"heuristic", 1804, 4819},
		{"maxaccuracy", 4910, 4896},
		{"minenergy", 3924, 3938},
	} {
		p, err := NewPolicy(want.policy)
		if err != nil {
			t.Fatal(err)
		}
		var sc planScratch
		for i := range views {
			p.(scratchPlanner).planInto(&views[i], &sc)
		}
		if sc.st.evals != want.evals || sc.st.latencies != want.latencies {
			t.Errorf("%s: %d candidates evaluated, %d latencies computed; want %d, %d",
				want.policy, sc.st.evals, sc.st.latencies, want.evals, want.latencies)
		}
	}
}

// The exhaustive references below are the planners' candidate search
// before it was pruned: chooseOPP scanning every OPP upward from the
// floor, and maxAccuracyAssign walking every OPP down from the top. The
// pruned search must plan exactly as they do.

// refChooseOPP is chooseOPP as a plain upward scan from the floor.
func refChooseOPP(st *planState, ci, floor, cores int, macs int64, budgetS float64) (int, bool) {
	cl := st.clusters[ci]
	for i := floor; i < len(cl.OPPs); i++ {
		if st.latencyS(ci, cl.OPPs[i], cores, macs) <= budgetS {
			return i, true
		}
	}
	return 0, false
}

// refHeuristicBest is heuristicBest choosing OPPs with refChooseOPP.
func refHeuristicBest(v *View, st *planState, sc *planScratch, a *sim.AppInfo, req Requirement, levels []int, bestEffort bool) (candidate, bool) {
	var best candidate
	found := false
	better := func(c candidate) bool {
		if !found {
			return true
		}
		cost := func(x candidate) float64 {
			v := x.dynPowMW
			if bestEffort {
				v = x.latencyS * 1000
			}
			if x.placement == a.Placement && x.level == a.Level {
				v *= 0.95
			}
			return v
		}
		if !bestEffort && c.accuracy != best.accuracy {
			return c.accuracy > best.accuracy
		}
		return cost(c) < cost(best)
	}
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range levels {
				oppIdx, ok := len(cl.OPPs)-1, true
				if !bestEffort {
					oppIdx, ok = refChooseOPP(st, ci, st.oppNeed[ci], cores, a.Profile.Level(level).MACs, req.MaxLatencyS)
				}
				if !ok {
					continue
				}
				c, r := evalCandidate(st, a, req, cl, ci, cores, level, oppIdx, bestEffort)
				if r != feasible {
					continue
				}
				if better(c) {
					best = c
					found = true
				}
			}
		}
	}
	return best, found
}

// refHeuristicAssign is heuristicAssign over refHeuristicBest.
func refHeuristicAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo) Assignment {
	req := v.req(a)
	minLevel := minLevelMeeting(a, req.MinAccuracy)
	if a.Profile.Level(minLevel).Accuracy >= req.MinAccuracy {
		sc.levels = append(sc.levels[:0], minLevel)
		if c, ok := refHeuristicBest(v, st, sc, a, req, sc.levels, false); ok {
			return st.commit(a, c, 1)
		}
	}
	sc.levels = descendingLevels(a, sc.levels)
	if c, ok := refHeuristicBest(v, st, sc, a, req, sc.levels, false); ok {
		return st.commit(a, c, 2)
	}
	if c, ok := refHeuristicBest(v, st, sc, a, req, sc.levels, true); ok {
		return st.commit(a, c, 3)
	}
	return park(st, a)
}

// refMaxAccuracyAssign is maxAccuracyAssign trying every OPP from the top
// down until one is feasible, whatever the others failed on.
func refMaxAccuracyAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo) Assignment {
	req := v.req(a)
	sc.levels = descendingLevels(a, sc.levels)
	var best candidate
	found := false
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range sc.levels {
				for oppIdx := len(cl.OPPs) - 1; oppIdx >= st.oppNeed[ci]; oppIdx-- {
					c, r := evalCandidate(st, a, req, cl, ci, cores, level, oppIdx, false)
					if r != feasible {
						continue
					}
					if !found || c.accuracy > best.accuracy ||
						(c.accuracy == best.accuracy && c.latencyS < best.latencyS) {
						best, found = c, true
					}
					break
				}
			}
		}
	}
	if found {
		pass := 1
		if best.accuracy < req.MinAccuracy {
			pass = 2
		}
		return st.commit(a, best, pass)
	}
	if c, ok := refHeuristicBest(v, st, sc, a, req, sc.levels, true); ok {
		return st.commit(a, c, 3)
	}
	return park(st, a)
}

// refMinEnergyAssign is minEnergyAssign with its best-effort pass over
// refHeuristicBest; its race passes pin the top OPP and so prune nothing.
func refMinEnergyAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo) Assignment {
	req := v.req(a)
	minLevel := minLevelMeeting(a, req.MinAccuracy)
	if a.Profile.Level(minLevel).Accuracy >= req.MinAccuracy {
		sc.levels = append(sc.levels[:0], minLevel)
		if c, ok := raceBest(v, st, sc, a, req, sc.levels); ok {
			return st.commit(a, c, 1)
		}
	}
	sc.levels = sc.levels[:0]
	for l := 1; l <= a.Profile.MaxLevel(); l++ {
		sc.levels = append(sc.levels, l)
	}
	if c, ok := raceBest(v, st, sc, a, req, sc.levels); ok {
		return st.commit(a, c, 2)
	}
	sc.levels = descendingLevels(a, sc.levels)
	if c, ok := refHeuristicBest(v, st, sc, a, req, sc.levels, true); ok {
		return st.commit(a, c, 3)
	}
	return park(st, a)
}

// TestPrunedSearchMatchesReference holds every built-in policy's pruned
// search to its exhaustive reference, plan for plan, on views from
// generated scenarios on every catalog platform — thermally pressured and
// with a cluster offline among them.
func TestPrunedSearchMatchesReference(t *testing.T) {
	refs := map[string]assignFunc{
		"heuristic":   refHeuristicAssign,
		"maxaccuracy": refMaxAccuracyAssign,
		"minenergy":   refMinEnergyAssign,
	}
	views := searchViews(t, 24)
	for _, name := range []string{"heuristic", "maxaccuracy", "minenergy"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range views {
			v := &views[i]
			got := p.Plan(*v)
			want := pooledPlan(v, refs[name])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, view %d (%s, margin %.0f °C): pruned plan %+v, reference %+v",
					name, i, v.Platform.Name, v.MarginC, got, want)
			}
		}
	}
}

// FuzzChooseOPP compares the pruned chooseOPP with refChooseOPP for any
// floor, core count, workload and budget, on every catalog cluster (cl
// below the catalog's cluster count) and otherwise on a random cluster
// drawn from seed: random rate, scaling and overhead, and up to 24 OPPs in
// strictly ascending frequency, some only an ulp apart.
func FuzzChooseOPP(f *testing.F) {
	cat := hw.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	var catalog []*hw.Cluster
	for _, name := range names {
		catalog = append(catalog, cat[name].Clusters...)
	}
	f.Add(uint8(0), int64(1), uint8(0), int8(4), int64(7_000_000), 0.05)
	f.Add(uint8(1), int64(2), uint8(3), int8(2), int64(1_000_000), 0.004)
	f.Add(uint8(200), int64(3), uint8(0), int8(1), int64(40_000_000), 0.1)
	f.Add(uint8(201), int64(4), uint8(30), int8(-1), int64(1), 1e-9)
	f.Fuzz(func(t *testing.T, clIdx uint8, seed int64, floor uint8, cores int8, macs int64, budgetS float64) {
		cl := randomCluster(rand.New(rand.NewSource(seed)))
		if int(clIdx) < len(catalog) {
			cl = catalog[clIdx]
		}
		if err := cl.Validate(); err != nil {
			t.Fatalf("generated cluster invalid: %v", err)
		}
		// Profiles carry positive MACs (perf.ModelProfile.Validate).
		macs = max(1, macs&math.MaxInt64)
		fl := int(floor) % (len(cl.OPPs) + 1)
		st := newPlanState(&View{Platform: &hw.Platform{Clusters: []*hw.Cluster{cl}}})
		gotIdx, gotOK := chooseOPP(st, 0, fl, int(cores), macs, budgetS)
		wantIdx, wantOK := refChooseOPP(st, 0, fl, int(cores), macs, budgetS)
		if gotIdx != wantIdx || gotOK != wantOK {
			t.Fatalf("%s: chooseOPP(floor=%d, cores=%d, macs=%d, budget=%v) = (%d, %v), linear scan (%d, %v)",
				cl.Name, fl, cores, macs, budgetS, gotIdx, gotOK, wantIdx, wantOK)
		}
	})
}

// randomCluster draws a valid CPU cluster for FuzzChooseOPP.
func randomCluster(rng *rand.Rand) *hw.Cluster {
	cl := &hw.Cluster{
		Name:              "random",
		Type:              hw.CoreA15,
		Cores:             1 + rng.Intn(8),
		RateMACsPerSecGHz: math.Ldexp(1+rng.Float64(), 10+rng.Intn(30)),
		ParallelAlpha:     1 - rng.Float64(),
		FixedOverheadS:    rng.Float64() * 0.01,
	}
	f := math.Ldexp(1+rng.Float64(), -4-rng.Intn(4))
	for i, n := 0, 1+rng.Intn(24); i < n; i++ {
		cl.OPPs = append(cl.OPPs, hw.OPP{FreqGHz: f, VoltageV: 0.8 + 0.05*float64(i)})
		step := 0.0
		if rng.Intn(4) > 0 {
			step = rng.Float64() * 0.5
		}
		f = math.Nextafter(f+step, math.Inf(1))
	}
	return cl
}
