package rtm

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// This file is the pluggable policy layer extracted from the runtime
// manager. The paper frames trade-off management — which dynamic-DNN
// level, DVFS point and core allocation each application gets — as a
// *policy* question with interchangeable strategies (heuristic or
// learned). A Policy is exactly that strategy: a pure planning function
// over a read-only View of the system. The Manager remains the actuation
// shell: it builds the View, asks the Policy for a plan, and drives the
// knob layer to realise it.

// View is the read-only snapshot a policy plans over: the engine's
// Snapshot (clock, thermal state, Platform, Apps, Clusters) plus the
// manager's thermal stance and the resolved requirements. The manager
// rebuilds it in place on every replan, and the package's own policies
// plan over it there, reading and never writing it. Any other policy
// gets a clone, so one that scribbles on its runtime state — Apps,
// Clusters, Reqs — corrupts only its own input, never manager or engine
// state. Platform (and the profile level tables inside each AppInfo) is
// shared static configuration: neither the engine nor the manager ever
// mutates it, and policies must honour the same read-only contract — it
// is not defensively copied.
type View struct {
	sim.Snapshot
	// MarginC is the planning margin below the throttle point the manager
	// currently demands (base margin plus accumulated thermal pressure).
	MarginC float64
	// DynBudgetMW is the sustained platform power budget, in mW, derived
	// from the RC thermal model at ThrottleC − MarginC. It includes static
	// (idle) power: planners must subtract idle and co-runner power before
	// spending it on DNN placements (newPlanState does this).
	DynBudgetMW float64
	// Reqs holds the resolved requirement of every DNN app, one entry
	// per DNN in Apps order (defaults applied: a zero MaxLatencyS becomes
	// the app's frame period).
	Reqs Requirements
}

// req returns the requirement for an app with defaults applied,
// tolerating hand-built Views whose Reqs are sparse or unresolved.
func (v *View) req(a *sim.AppInfo) Requirement { return v.Reqs.resolve(a.Name, a.PeriodS) }

// ClusterOnline reports whether the cluster at platform index ci is
// available. Manager-built views carry one ClusterInfo per platform
// cluster in order; sparse hand-built views (fewer Clusters than platform
// clusters) default to online, matching the pre-fault behaviour.
func (v *View) ClusterOnline(ci int) bool {
	if ci < 0 || ci >= len(v.Clusters) {
		return true
	}
	return v.Clusters[ci].Online
}

// appIndex is the index in Apps of the app named name, or -1.
func (v *View) appIndex(name string) int {
	for i := range v.Apps {
		if v.Apps[i].Name == name {
			return i
		}
	}
	return -1
}

// Clone deep-copies the view's slices (one level: profile level tables
// inside AppInfo are shared, as is the Platform description). It is
// what Manager.LastView returns, so callers can inspect the last planning
// input without aliasing manager state.
func (v View) Clone() View {
	var c View
	v.CloneInto(&c)
	return c
}

// CloneInto rebuilds dst as a clone of v — the same one-level deep copy as
// Clone, but into dst's existing slices so a caller replanning every tick
// (the Manager) clones without allocating once the buffers have grown to
// the working-set size.
//
//detlint:hotpath
func (v View) CloneInto(dst *View) {
	apps, clusters, reqs := dst.Apps[:0], dst.Clusters[:0], dst.Reqs[:0]
	*dst = v
	dst.Apps = append(apps, v.Apps...)
	dst.Clusters = append(clusters, v.Clusters...)
	dst.Reqs = append(reqs, v.Reqs...)
}

// Policy maps a View to one Assignment per running DNN app. Plan must be
// deterministic (same View, same plan) and must not retain or mutate the
// View; the fleet harness depends on both to keep sweeps reproducible.
// (The Manager hands Plan a view whose buffers it reuses across replans —
// a retained View would observe the next tick's state, which is exactly
// why retention is outside the contract.)
type Policy interface {
	// Name is the registry key the policy is addressed by (e.g. in
	// fleetsim -policies); stable and lowercase by convention.
	Name() string
	// Plan computes assignments for every running DNN in the view.
	Plan(v View) []Assignment
}

// DefaultPolicy is the policy NewManager installs and the name the empty
// string resolves to: the paper's heuristic manager.
const DefaultPolicy = "heuristic"

var (
	policyMu        sync.RWMutex
	policyFactories = map[string]func() Policy{}
)

// Register adds a policy factory under its name. New strategies are one
// file: implement Policy, Register it from an init function, and every
// layer above — manager, fleet sweeps, fleetsim -policies, the facade —
// can address it by name. Register panics on a duplicate or empty name
// (a programming error, caught at init time).
func Register(name string, factory func() Policy) {
	if name == "" || factory == nil {
		panic("rtm: Register requires a name and a factory")
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyFactories[name]; dup {
		panic(fmt.Sprintf("rtm: policy %q registered twice", name))
	}
	policyFactories[name] = factory
}

// Policies lists all registered policy names, sorted.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewPolicy instantiates a registered policy by name; "" resolves to
// DefaultPolicy, and "learned:<path>" loads a trained selection table
// through LoadLearnedPolicy — a parameterised name that stays a plain
// string, so fleet sweeps, shard validation and the CLIs address it like
// the built-ins. Unknown names error with the list of valid ones, so a
// typo in a sweep spec fails loudly before any simulation runs.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	if factory := factoryOf(name); factory != nil {
		return factory(), nil
	}
	if path, ok := strings.CutPrefix(name, LearnedParamPrefix+":"); ok {
		p, err := LoadLearnedPolicy(path)
		if err != nil {
			return nil, fmt.Errorf("rtm: policy %q: %w", name, err)
		}
		return p, nil
	}
	return nil, fmt.Errorf("rtm: unknown policy %q (registered: %v; parameterised: [%s:<arg>])",
		name, Policies(), LearnedParamPrefix)
}

// factoryOf returns the factory registered under name, or nil.
func factoryOf(name string) func() Policy {
	policyMu.RLock()
	defer policyMu.RUnlock()
	return policyFactories[name]
}

// builtinPolicy is a greedy built-in policy: its assign step run over the
// shared ledger (planWith) in planning order.
type builtinPolicy struct {
	name   string
	assign assignFunc
}

// The built-in policies. Each is one immutable value that every factory
// call and every Manager shares; Reset installs heuristicPolicy without
// allocating.
var (
	heuristicPolicy   = &builtinPolicy{"heuristic", heuristicAssign}
	maxAccuracyPolicy = &builtinPolicy{"maxaccuracy", maxAccuracyAssign}
	minEnergyPolicy   = &builtinPolicy{"minenergy", minEnergyAssign}
)

func init() {
	for _, p := range []*builtinPolicy{heuristicPolicy, maxAccuracyPolicy, minEnergyPolicy} {
		Register(p.name, func() Policy { return p })
	}
}

// Name implements Policy.
func (p *builtinPolicy) Name() string { return p.name }

// Plan implements Policy.
func (p *builtinPolicy) Plan(v View) []Assignment { return pooledPlan(&v, p.assign) }

// planInto implements sealedPolicy: the Manager's allocation-free path.
func (p *builtinPolicy) planInto(v *View, sc *planScratch) []Assignment {
	return planWith(v, sc, p.assign)
}

// dynFingerprint implements sealedPolicy. A built-in reads only the
// canonical View fields (requirements, platform, DynBudgetMW, cluster
// availability, per-app identity/placement/level/profile), all covered by
// the plan epoch and the manager's versions, so its dynamic part is empty
// and its replans elide.
func (*builtinPolicy) dynFingerprint(*View) (uint64, bool) { return 0, true }

// ---- Shared planning machinery ----
//
// The pieces below are the constraint bookkeeping every greedy policy
// shares: the resource ledger, candidate evaluation, OPP/core option
// enumeration, and commitment. Policies differ in which candidates they
// enumerate and how they rank them.
//
// Everything here plans out of a planScratch: the ledger and every
// intermediate slice reset in place instead of reallocating, because a
// fleet sweep replans thousands of times per simulated scenario and the
// per-plan maps this replaced were the planning hot path's dominant
// allocation.

// candidate is one evaluated operating point during planning. The searches
// keep theirs in planScratch's try and best slots and pass them by
// pointer: a candidate is copied only when it improves on the best.
type candidate struct {
	placement sim.Placement
	ci        int // platform cluster index of placement.Cluster
	level     int
	oppIdx    int
	latencyS  float64
	duty      float64
	dynPowMW  float64
	accuracy  float64
	memBytes  int64
}

// planState is the resource ledger consumed while assigning apps. Entries
// are indexed by platform cluster position (see clusterIndex), not name:
// index-addressed slices reset in place where name-keyed maps reallocated
// per plan.
type planState struct {
	clusters  []*hw.Cluster // v.Platform.Clusters, the index space
	online    []bool
	freeCores []int
	freeDuty  []float64
	freeMem   []int64
	oppNeed   []int
	dynBudget float64 // remaining average dynamic power, mW

	// coreScale[ci][n] is clusters[ci].CoreScale(n) for n in 0..Cores,
	// tabulated for platform so candidate latencies never call math.Pow
	// (see latencyS). Holding platform keeps it alive, so a different
	// platform can never reuse its address and inherit a stale table. The
	// rows share one backing array.
	platform  *hw.Platform
	coreScale [][]float64

	// evals and latencies count evalCandidate calls and latencyS
	// evaluations over the ledger's lifetime (init leaves them alone).
	// They are the planners' work counters: Manager.PlanStats reports its
	// ledger's, and Manager.Reset zeroes them.
	evals, latencies uint64
}

// clusterIndex maps a cluster name to its platform position (-1 when
// unknown). Platforms carry a handful of clusters, so a linear scan beats
// any allocation-bearing index structure.
func (st *planState) clusterIndex(name string) int {
	for i, cl := range st.clusters {
		if cl.Name == name {
			return i
		}
	}
	return -1
}

// reuse returns s with length n and zeroed contents, keeping the backing
// array whenever it is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// newPlanState builds a fresh ledger from a view (tests and one-shot
// callers); policies running hot go through planState.init on a scratch
// ledger instead.
func newPlanState(v *View) *planState {
	st := &planState{}
	st.init(v)
	return st
}

// init (re)builds the ledger from a view: the thermal power budget less
// every cluster's idle power and the (uncontrollable) power of non-DNN
// co-runners, plus free cores, accelerator duty and accelerator memory.
// Iteration follows platform cluster order, not map order: the budget is a
// float accumulation, and a run-dependent summation order could flip a
// marginal feasibility decision between identical runs.
//
//detlint:hotpath
func (st *planState) init(v *View) {
	cls := v.Platform.Clusters
	st.clusters = cls
	st.online = reuse(st.online, len(cls))
	st.freeCores = reuse(st.freeCores, len(cls))
	st.freeDuty = reuse(st.freeDuty, len(cls))
	st.freeMem = reuse(st.freeMem, len(cls))
	st.oppNeed = reuse(st.oppNeed, len(cls))
	st.dynBudget = v.DynBudgetMW
	if v.Platform != st.platform {
		st.platform = v.Platform
		size := 0
		for _, cl := range cls {
			size += cl.Cores + 1
		}
		store := make([]float64, 0, size)
		st.coreScale = st.coreScale[:0]
		for _, cl := range cls {
			lo := len(store)
			for n := 0; n <= cl.Cores; n++ {
				store = append(store, cl.CoreScale(n))
			}
			st.coreScale = append(st.coreScale, store[lo:])
		}
	}
	for ci, cl := range cls {
		st.online[ci] = v.ClusterOnline(ci)
		if !st.online[ci] {
			// Dead silicon: no allocatable resources (coreOptions then
			// returns empty for every policy) and no idle draw to charge.
			continue
		}
		st.dynBudget -= cl.IdlePowerMW()
		if cl.Type.IsAccelerator() {
			st.freeDuty[ci] = 1
			st.freeMem[ci] = cl.MemBytes
		} else {
			st.freeCores[ci] = cl.Cores
		}
	}
	// Non-DNN apps consume resources and power at the OPP they will be
	// pinned to: max for render clusters, min otherwise. Per cluster, apps
	// are visited in view (engine creation) order — the same accumulation
	// order as the map-grouped implementation this replaces.
	for ci, cl := range cls {
		if !st.online[ci] {
			continue // co-runners on a dead cluster run nothing and draw nothing
		}
		resident, render := false, false
		for i := range v.Apps {
			a := &v.Apps[i]
			if !a.Running || a.Kind == sim.KindDNN || a.Placement.Cluster != cl.Name {
				continue
			}
			resident = true
			if a.Kind == sim.KindRender {
				render = true
			}
		}
		if !resident {
			continue
		}
		opp := cl.MinOPP()
		if render {
			opp = cl.MaxOPP()
			st.oppNeed[ci] = len(cl.OPPs) - 1
		}
		for i := range v.Apps {
			a := &v.Apps[i]
			if !a.Running || a.Kind == sim.KindDNN || a.Placement.Cluster != cl.Name {
				continue
			}
			dyn := dynPowerMW(cl, opp, clApplyCores(cl, a.Placement.Cores), a.Util)
			st.dynBudget -= dyn
			if cl.Type.IsAccelerator() {
				st.freeDuty[ci] -= a.Util
			} else {
				st.freeCores[ci] -= a.Placement.Cores
			}
		}
	}
	if st.dynBudget < 0 {
		st.dynBudget = 0
	}
}

// planScratch owns every buffer one planning pass needs — the ledger, the
// sorted DNN worklist, option/level enumeration buffers, the candidate
// slots, the plan under construction and the clone a policy outside the
// package plans over. The Manager keeps one per instance so its replan
// loop is allocation-free; the public Plan entry points borrow one from a
// pool.
type planScratch struct {
	st     planState
	dnns   []int // View.Apps indices of the plannable DNNs, in planning order
	opts   []int
	levels []int
	// try is the candidate a search is evaluating (evalCandidate fills it
	// in place) and best the search's running winner, which a search
	// overwrites from try only when try beats it and its caller commits.
	try, best candidate
	plan      []Assignment
	view      View
}

// scratchPool backs the public Plan entry points, which must hand back a
// caller-owned slice and so cannot expose pooled memory directly.
var scratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// sealedPolicy is the package-internal seam the Manager prefers, which
// every built-in and the arm selector implement; external policies fall
// back to the public Plan contract, over a clone, and are never elided.
//
// planInto plans into caller-owned scratch buffers, returning a slice
// that aliases sc.plan: the allocation-free path. It plans over v in
// place — the manager's own view, which actuation and LastView read
// afterwards — so it must leave v exactly as it found it.
//
// dynFingerprint is the policy's part of replan elision's key, read from
// the view the replan built before it decides whether to plan: a policy
// whose plan depends only on the engine's PlanEpoch-tracked state plus
// the manager's thermal stance returns a constant; a policy that
// additionally reads continuously-moving observables (a trained table's
// thermal and slack buckets) returns them, computed by the same
// functions its Plan uses. ok=false says the policy must plan every
// replan (a trainer's exploring selector, which records each choice):
// the manager then never elides it.
type sealedPolicy interface {
	planInto(v *View, sc *planScratch) []Assignment
	dynFingerprint(v *View) (key uint64, ok bool)
}

// sealedOf returns p's sealed seam, or nil when it has none. The
// package's own policies are matched by their concrete types, which costs
// a compare of type words. Only other policies are asserted to the
// interface, since the runtime fills an interface assertion's per-site
// cache by allocating, in a random one of about 1024 calls, until the
// type is cached: an assertion on every replan made a run allocate at
// random.
func sealedOf(p Policy) sealedPolicy {
	switch p := p.(type) {
	case *builtinPolicy:
		return p
	case *armSelector:
		return p
	}
	sp, _ := p.(sealedPolicy)
	return sp
}

// assignFunc is one policy's per-app planning step over the shared ledger.
// It writes the app's assignment into out, every field of it.
type assignFunc func(v *View, st *planState, sc *planScratch, a *sim.AppInfo, out *Assignment)

// planWith runs a policy's assign step over the plannable DNNs in priority
// order, building the plan in sc.plan: each step writes its assignment
// into the plan's next slot, which grows as append would grow it. The
// returned slice aliases sc.plan — callers that outlive the scratch must
// copy.
//
//detlint:hotpath
func planWith(v *View, sc *planScratch, assign assignFunc) []Assignment {
	sc.st.init(v)
	plan := sc.plan[:0]
	for _, i := range sc.plannableDNNs(v) {
		plan = slices.Grow(plan, 1)[:len(plan)+1]
		assign(v, &sc.st, sc, &v.Apps[i], &plan[len(plan)-1])
	}
	sc.plan = plan
	return plan
}

// planOutside plans v with a policy from outside the package, through the
// public Plan contract, over a clone in sc.view: the policy may write its
// View, and v stays as it was.
func (sc *planScratch) planOutside(p Policy, v *View) []Assignment {
	v.CloneInto(&sc.view)
	return p.Plan(sc.view)
}

// pooledPlan is the public-Plan path: borrow a scratch, plan, publish a
// caller-owned copy.
func pooledPlan(v *View, assign assignFunc) []Assignment {
	sc := scratchPool.Get().(*planScratch)
	defer scratchPool.Put(sc)
	return append([]Assignment(nil), planWith(v, sc, assign)...)
}

// plannableDNNs rebuilds sc.dnns with the View.Apps indices of the
// running DNN apps in planning order: priority descending, then latency
// budget ascending, stable over engine order. The insertion sort is
// stable and comparison-compatible with the sort.SliceStable it replaces,
// so the order — and therefore every downstream planning decision — is
// identical.
//
//detlint:hotpath
func (sc *planScratch) plannableDNNs(v *View) []int {
	dnns := sc.dnns[:0]
	for i := range v.Apps {
		if a := &v.Apps[i]; a.Running && a.Kind == sim.KindDNN {
			dnns = append(dnns, i)
		}
	}
	for i := 1; i < len(dnns); i++ {
		for j := i; j > 0 && dnnBefore(v, &v.Apps[dnns[j]], &v.Apps[dnns[j-1]]); j-- {
			dnns[j], dnns[j-1] = dnns[j-1], dnns[j]
		}
	}
	sc.dnns = dnns
	return dnns
}

// dnnBefore is the planning order: priority descending, then latency
// budget ascending.
func dnnBefore(v *View, a, b *sim.AppInfo) bool {
	ra, rb := v.req(a), v.req(b)
	if ra.Priority != rb.Priority {
		return ra.Priority > rb.Priority
	}
	return ra.MaxLatencyS < rb.MaxLatencyS
}

func clApplyCores(cl *hw.Cluster, cores int) int {
	if cl.Type.IsAccelerator() {
		return cl.Cores
	}
	return cores
}

// dynPowerMW is the average dynamic (above-static) power of n cores at the
// given utilisation.
func dynPowerMW(cl *hw.Cluster, opp hw.OPP, n int, util float64) float64 {
	return cl.BusyPowerMW(opp, n, util) - cl.IdlePowerMW()
}

// coreOptions lists allocatable core counts on cluster index ci given the
// ledger, largest first (so a tie on the objective keeps the bigger
// allocation). Options are appended into buf, which is reset and reused —
// callers pass a scratch buffer and must consume the result before the
// next call with the same buffer.
//
//detlint:hotpath
func coreOptions(cl *hw.Cluster, st *planState, ci int, buf []int) []int {
	buf = buf[:0]
	if cl.Type.IsAccelerator() {
		if st.freeDuty[ci] <= 0 {
			return buf
		}
		return append(buf, cl.Cores)
	}
	free := st.freeCores[ci]
	for n := free; n >= 1; n-- {
		buf = append(buf, n)
	}
	return buf
}

// latencyS is perf.InferenceLatencyS on ledger cluster ci with the core
// scaling read from the table, n clamped as hw.Cluster.CoreScale clamps
// it: the rate is hw.Cluster.EffectiveRate's product with its last factor
// looked up, so the latency is the same, bit for bit.
func (st *planState) latencyS(ci int, opp hw.OPP, n int, macs int64) float64 {
	st.latencies++
	cl := st.clusters[ci]
	return cl.LatencyAtRate(cl.OPPRate(opp)*st.coreScale[ci][max(0, min(n, cl.Cores))], macs)
}

// chooseOPP returns the lowest OPP index >= floor (the cluster's committed
// DVFS floor) on ledger cluster ci meeting the latency budget — pacing
// beats race-to-idle under a CV²f power model. ok is false when even the
// maximum OPP misses.
//
// The maximum OPP is tried first, and when it misses no other is: OPPs
// ascend strictly in frequency (hw.Cluster.Validate enforces it), so
// latencyS never falls as the index falls, in floating point too — each
// step of its arithmetic is monotone in the frequency. A budget the
// fastest OPP misses is missed by every OPP.
func chooseOPP(st *planState, ci, floor, cores int, macs int64, budgetS float64) (int, bool) {
	cl := st.clusters[ci]
	top := len(cl.OPPs) - 1
	if floor > top || !(st.latencyS(ci, cl.OPPs[top], cores, macs) <= budgetS) {
		return 0, false
	}
	for i := floor; i < top; i++ {
		if st.latencyS(ci, cl.OPPs[i], cores, macs) <= budgetS {
			return i, true
		}
	}
	return top, true
}

// verdict is evalCandidate's account of a candidate: feasible, or the
// first check it failed. A candidate over memory, latency or duty fails
// at every lower OPP of its (cluster, cores, level) too: memory does not
// depend on the OPP, and latency and duty never fall as the OPP falls
// (see evalCandidate). Only the power check can pass lower down, where a
// smaller voltage and frequency may outweigh a longer duty.
type verdict uint8

const (
	feasible verdict = iota
	overMemory
	overLatency
	overDuty
	overPower
)

// evalCandidate checks one (cluster, cores, level, OPP) point against the
// ledger — accelerator memory, latency budget (skipped in best-effort
// mode), accelerator duty and the power budget — and prices it into the
// caller's c. ci is the cluster's ledger index and level one of a's
// levels. The verdict names the first check that failed, or is feasible;
// only a feasible candidate is written to c.
//
// Callers scanning OPPs downward stop at the first failure other than
// overPower. That relies on OPPs ascending strictly in frequency, which
// hw.Cluster.Validate enforces: latency is then non-increasing in the OPP
// index (see chooseOPP), and so is duty, latency over a positive period
// capped at 1.
func evalCandidate(st *planState, a *sim.AppInfo, req Requirement, cl *hw.Cluster, ci, cores, level, oppIdx int, bestEffort bool, c *candidate) verdict {
	st.evals++
	spec := &a.Profile.Levels[level-1]
	var memNeed int64
	if cl.MemBytes > 0 && a.ModelBytes > 0 {
		memNeed = a.Profile.ResidentBytes(a.ModelBytes, level)
		if memNeed > st.freeMem[ci] {
			return overMemory
		}
	}
	opp := cl.OPPs[oppIdx]
	lat := st.latencyS(ci, opp, cores, spec.MACs)
	duty := hw.Duty(lat, a.PeriodS)
	if !bestEffort {
		if lat > req.MaxLatencyS {
			return overLatency
		}
		if cl.Type.IsAccelerator() && duty > st.freeDuty[ci]+1e-9 {
			return overDuty
		}
	}
	dyn := dynPowerMW(cl, opp, cores, 1) * duty
	if dyn > st.dynBudget+1e-9 {
		return overPower
	}
	// Field by field: a composite literal is built aside and then copied.
	c.placement = sim.Placement{Cluster: cl.Name, Cores: cores}
	c.ci, c.level, c.oppIdx = ci, level, oppIdx
	c.latencyS, c.duty, c.dynPowMW = lat, duty, dyn
	c.accuracy, c.memBytes = spec.Accuracy, memNeed
	return feasible
}

// commit consumes ledger resources for the chosen candidate, which it only
// reads, and writes it into out as an Assignment.
//
//detlint:hotpath
func (st *planState) commit(a *sim.AppInfo, c *candidate, pass int, out *Assignment) {
	cl := st.clusters[c.ci]
	if c.duty > 0 && cl.Type.IsAccelerator() {
		st.freeDuty[c.ci] -= c.duty
	}
	if !cl.Type.IsAccelerator() {
		st.freeCores[c.ci] -= c.placement.Cores
	}
	if c.memBytes > 0 {
		st.freeMem[c.ci] -= c.memBytes
	}
	st.dynBudget -= c.dynPowMW
	if st.dynBudget < 0 {
		st.dynBudget = 0
	}
	if c.oppIdx > st.oppNeed[c.ci] {
		st.oppNeed[c.ci] = c.oppIdx
	}
	// Field by field: a composite literal is built aside and then copied.
	out.App, out.Placement = a.Name, c.placement
	out.Level, out.OPPIndex = c.level, c.oppIdx
	out.LatencyS, out.DynPowMW, out.Accuracy = c.latencyS, c.dynPowMW, c.accuracy
	out.Pass = pass
}

// park is the nothing-fits fallback every policy shares: stay at the
// current placement, minimum level, minimum OPP, and let best effort ride.
// When the current placement is on an offline cluster, staying put would
// leave the app unhosted, so park diverts to the degraded pin: degradedPin
// picks the cluster, pinCandidate prices the pin there. Only when no
// online cluster can host the app does it stay on the dead one — the
// manager's post-pass (applyDegradedFallback) may still free it a seat by
// shrinking a donor, and its retry/repair triggers pick it up from there.
// A placement on a cluster the platform lacks (only a hand-built View can
// carry one) is treated like an offline one; if no cluster can take the
// app, it stays there at level 1 with no ledger entry to charge. The
// assignment is written into out.
func park(st *planState, a *sim.AppInfo, out *Assignment) {
	ci := st.clusterIndex(a.Placement.Cluster)
	if ci < 0 || !st.online[ci] {
		if alt := degradedPin(st, a); alt >= 0 {
			c := pinCandidate(st, a, alt)
			st.commit(a, &c, 3, out)
			return
		}
		if ci < 0 {
			*out = Assignment{App: a.Name, Placement: a.Placement, Level: 1,
				Accuracy: a.Profile.Level(1).Accuracy, Pass: 3}
			return
		}
	}
	cl := st.clusters[ci]
	c := candidate{
		placement: a.Placement,
		ci:        ci,
		level:     1,
		oppIdx:    0,
		latencyS:  st.latencyS(ci, cl.MinOPP(), clApplyCores(cl, a.Placement.Cores), a.Profile.Level(1).MACs),
		accuracy:  a.Profile.Level(1).Accuracy,
	}
	st.commit(a, &c, 3, out)
}

// degradedPin picks the ledger index of the least-loaded online cluster
// able to host a at its lowest level, or -1 when none can. CPUs must have
// a free core and memory-capped accelerators must fit the level-1 model —
// both hard actuation constraints — but accelerator duty may oversubscribe:
// in degraded mode a slow frame beats no frame. Load is the consumed
// fraction of the ledger; ties resolve in platform order. It is the one
// seat rule for an app stranded on dead silicon, used by park while a
// policy plans and by the manager's post-pass over the finished plan.
func degradedPin(st *planState, a *sim.AppInfo) int {
	best, bestLoad := -1, 0.0
	for ci, cl := range st.clusters {
		if !st.online[ci] {
			continue
		}
		var load float64
		if cl.Type.IsAccelerator() {
			if cl.MemBytes > 0 && a.ModelBytes > 0 &&
				a.Profile.ResidentBytes(a.ModelBytes, 1) > st.freeMem[ci] {
				continue
			}
			load = 1 - st.freeDuty[ci]
		} else {
			if st.freeCores[ci] < 1 {
				continue
			}
			load = 1 - float64(st.freeCores[ci])/float64(cl.Cores)
		}
		if best == -1 || load < bestLoad {
			best, bestLoad = ci, load
		}
	}
	return best
}

// pinCandidate prices the degraded pin of a on ledger cluster ci: level 1
// at the minimum OPP on one core (all of an accelerator's), holding the
// level-1 model in a memory-capped accelerator. It books no duty and no
// power: a pin is best effort. Callers charge it with commit.
func pinCandidate(st *planState, a *sim.AppInfo, ci int) candidate {
	cl := st.clusters[ci]
	cores := clApplyCores(cl, 1)
	c := candidate{
		placement: sim.Placement{Cluster: cl.Name, Cores: cores},
		ci:        ci,
		level:     1,
		latencyS:  st.latencyS(ci, cl.MinOPP(), cores, a.Profile.Level(1).MACs),
		accuracy:  a.Profile.Level(1).Accuracy,
	}
	if cl.MemBytes > 0 && a.ModelBytes > 0 {
		c.memBytes = a.Profile.ResidentBytes(a.ModelBytes, 1)
	}
	return c
}

// descendingLevels fills buf with [MaxLevel .. 1] for a profile, reusing
// the buffer's backing array.
func descendingLevels(a *sim.AppInfo, buf []int) []int {
	buf = buf[:0]
	for l := a.Profile.MaxLevel(); l >= 1; l-- {
		buf = append(buf, l)
	}
	return buf
}

// minLevelMeeting returns the lowest level whose accuracy meets the floor
// (the highest level when none does).
func minLevelMeeting(a *sim.AppInfo, minAccuracy float64) int {
	minLevel := 1
	for l := 1; l <= a.Profile.MaxLevel(); l++ {
		minLevel = l
		if a.Profile.Levels[l-1].Accuracy >= minAccuracy {
			break
		}
	}
	return minLevel
}
