// Package rtm implements the paper's runtime-management layer (Section V,
// Fig 5): a PRiME-style three-layer architecture in which applications and
// devices expose *knobs* (adjustable parameters) and *monitors* (observable
// metrics), and a runtime manager closes the loop between application
// requirements and device constraints.
//
// Knobs implemented: the dynamic-DNN configuration level (application
// knob), task mapping and per-cluster DVFS (device knobs). Monitors:
// frame latency / miss counts / accuracy and confidence (application),
// temperature and power (device).
package rtm

import (
	"fmt"
	"math"
	"slices"

	"github.com/emlrtm/emlrtm/internal/sim"
)

// Requirement is what an application demands from the runtime manager —
// the information flowing down through application monitors in Fig 5.
type Requirement struct {
	// MaxLatencyS is the per-inference latency budget; 0 means "use the
	// app's frame period".
	MaxLatencyS float64
	// MinAccuracy is the lowest acceptable top-1 accuracy (0 = any).
	MinAccuracy float64
	// Priority orders apps during planning; higher wins resources first.
	Priority int
}

// Assignment is one planned operating point for an app.
type Assignment struct {
	App       string
	Placement sim.Placement
	Level     int
	OPPIndex  int
	LatencyS  float64
	DynPowMW  float64 // average dynamic power (duty-weighted)
	Accuracy  float64
	Pass      int // 1 = requirement met, 2 = accuracy relaxed, 3 = best effort
}

// Manager tuning.
const (
	// pressureStepC is the margin added per outstanding thermal alarm.
	pressureStepC = 4.0
	// missReplanThreshold triggers a replan after this many deadline
	// misses/frame drops since the previous plan.
	missReplanThreshold = 2
	// missReplanBackoffS rate-limits miss-triggered replans: when the
	// workload is unschedulable, every frame misses and replanning each
	// tick would churn without changing the plan.
	missReplanBackoffS = 2.0
	// faultReplanBackoffS rate-limits fault-triggered replans the same way:
	// a fault storm (several clusters failing close together) or a degraded
	// pin the engine keeps rejecting must not replan every event. The first
	// fault after a quiet period always replans immediately.
	faultReplanBackoffS = 0.5
)

// Manager is the paper's runtime resource manager: on workload arrivals,
// thermal alarms, sustained deadline misses and requirement changes it
// re-plans the (model level, mapping, DVFS) knob settings of every managed
// DNN so that application requirements are met within device constraints.
//
// The manager itself is an actuation shell. *What* to plan is delegated to
// a pluggable Policy (NewManager installs the paper's heuristic; see
// Register/Policies for alternatives): each replan builds a read-only View
// of the system, asks the policy for one Assignment per DNN, and actuates
// the plan through the knob layer.
//
// The thermal power budget the View carries is derived from the RC model:
// sustained power that keeps steady-state temperature at throttle − margin.
// Each thermal alarm raises the margin (pressure); the pressure decays once
// the die cools, restoring performance — a reactive feedback loop on top of
// the proactive plan.
type Manager struct {
	reqs map[string]Requirement

	// Logf, when set, receives planning decisions.
	Logf func(format string, args ...any)

	policy       Policy
	eng          *sim.Engine // the engine the last Replan ran against
	pressure     int
	misses       int
	pending      bool
	plans        int
	last         []Assignment // the last actuated plan; white-box tests read it
	lastView     View         // aliases snap and viewReqs; LastView clones it
	lastMissPlan float64

	// Fault-replan state: faultPending marks an open fault burst (recovery
	// latency is measured from faultAtS to the next actuated replan),
	// faultReplanWanted defers a fault/repair-triggered replan that landed
	// inside the backoff window to a later tick, and recoveries accumulates
	// the measured latencies for fleet reporting.
	faultPending      bool
	faultReplanWanted bool
	faultAtS          float64
	lastFaultPlan     float64
	recoveries        []float64
	degradedUsed      []int // scratch for applyDegradedFallback

	// Plan-reuse state: version counters folded into the elision
	// fingerprint, the fingerprint the last planned replan was keyed on
	// (valid only while lastFPOK: that replan's policy opted into elision,
	// against the engine the manager still plans for), and the elision
	// counter.
	reqsVer   uint64
	policyVer uint64
	lastFP    planFingerprint
	lastFPOK  bool
	elided    int

	// Replan scratch: the manager replans every controller tick, so the
	// planning input (engine snapshot + view), the defensive policy copy,
	// the policy's working buffers and the actuation indexes are all
	// rebuilt in place instead of reallocated. Handed-out state stays
	// defensive — LastView copies on read. Reset keeps these
	// buffers and nothing else.
	snap       sim.Snapshot
	viewReqs   map[string]Requirement
	policyView View
	scratch    planScratch
	cur        []appCur // actuation's view of each View.Apps entry
	planApp    []int    // View.Apps index of each plan entry's app, or -1
}

// appCur is the part of an app's state actuation moves: where it runs and
// at which level.
type appCur struct {
	placement sim.Placement
	level     int
}

// NewManager builds a manager with the given per-app requirements (keyed
// by app name; apps without an entry get defaults: latency = period,
// accuracy unconstrained, priority 0) and the default heuristic policy.
func NewManager(reqs map[string]Requirement) *Manager {
	m := &Manager{}
	m.Reset(reqs)
	return m
}

// Reset returns the manager to the state NewManager(reqs) builds: the
// default heuristic policy, no Logf, no thermal pressure, no
// miss, fault, recovery or plan history, no elision fingerprint and no
// engine. Only the replan scratch buffers survive, so a caller running
// scenario after scenario on one manager (a fleet worker) replans without
// regrowing them; a Reset manager plans exactly as a new one does.
func (m *Manager) Reset(reqs map[string]Requirement) {
	r := m.reqs
	if r == nil {
		r = make(map[string]Requirement, len(reqs))
	}
	clear(r)
	//detlint:ordered map-to-map copy; per-key writes are order-independent
	for k, v := range reqs {
		r[k] = v
	}
	*m = Manager{
		reqs:          r,
		lastFaultPlan: math.Inf(-1),
		policy:        heuristicPolicy,

		last:         m.last[:0],
		recoveries:   m.recoveries[:0],
		degradedUsed: m.degradedUsed,
		snap:         m.snap,
		viewReqs:     m.viewReqs,
		policyView:   m.policyView,
		scratch:      m.scratch,
		cur:          m.cur[:0],
		planApp:      m.planApp[:0],
	}
}

// SetPolicy swaps the planning policy and schedules a replan so the swap
// takes effect at the next controller tick. A nil policy is ignored.
func (m *Manager) SetPolicy(p Policy) {
	if p == nil {
		return
	}
	m.policy = p
	m.policyVer++
	m.pending = true
}

// SetRequirement installs or replaces an app's requirement at runtime (the
// Fig 2(d) event: "the accuracy requirement of the second DNN is reduced")
// and schedules a replan.
func (m *Manager) SetRequirement(app string, r Requirement) {
	m.reqs[app] = r
	m.reqsVer++
	m.pending = true
}

// Requirement returns the requirement for an app (with defaults applied).
func (m *Manager) Requirement(app string, periodS float64) Requirement {
	r := m.reqs[app]
	if r.MaxLatencyS == 0 {
		r.MaxLatencyS = periodS
	}
	return r
}

// Plans returns how many replans have executed.
func (m *Manager) Plans() int { return m.plans }

// PlanStats reports the manager's plan-reuse counters: total replans and
// elided replans. The counters are observability only — they never enter
// simulation reports, whose bytes must not depend on reuse.
//
//detlint:allow deadexport test-only counter until it becomes a work-counter row in the allocs table
func (m *Manager) PlanStats() PlanStats {
	return PlanStats{Plans: m.plans, Elided: m.elided}
}

// LastView returns a copy of the view the most recent plan was computed
// over — the read-only planning input, for inspection and tests. The
// copy is defensive: callers (and policies, which receive the view by
// value at plan time) cannot reach manager or engine state through it.
func (m *Manager) LastView() View { return m.lastView.Clone() }

// KnobsAndMonitors names, sorted, the Fig 5 interface of the engine the
// manager last planned against: each DNN's level knob (app.<dnn>.level)
// and accuracy and latency monitors, each cluster's DVFS knob
// (dev.<cluster>.opp), and the platform's power and temperature monitors.
// Both lists are nil before the first plan. Policies never see the names:
// they plan over the read-only View, and the manager actuates the engine
// directly.
func (m *Manager) KnobsAndMonitors() (knobs, monitors []string) {
	if m.eng == nil {
		return nil, nil
	}
	for _, a := range m.eng.Apps() {
		if a.Kind == sim.KindDNN {
			knobs = append(knobs, "app."+a.Name+".level")
			monitors = append(monitors, "app."+a.Name+".accuracy", "app."+a.Name+".latency")
		}
	}
	for _, cl := range m.eng.Platform().Clusters {
		knobs = append(knobs, "dev."+cl.Name+".opp")
	}
	monitors = append(monitors, "dev.power", "dev.temperature")
	slices.Sort(knobs)
	slices.Sort(monitors)
	return knobs, monitors
}

// Pressure returns the outstanding thermal pressure level.
func (m *Manager) Pressure() int { return m.pressure }

// OnTick implements sim.Controller.
func (m *Manager) OnTick(e *sim.Engine) {
	// Thermal pressure decays when the die has cooled well below the trip
	// point, restoring performance headroom.
	if m.pressure > 0 && e.Temperature() < e.ThrottleC()-6 {
		m.pressure--
		m.pending = true
	}
	if m.misses >= missReplanThreshold && e.Now()-m.lastMissPlan >= missReplanBackoffS {
		m.pending = true
		m.lastMissPlan = e.Now()
	}
	// Fault retry: a deferred fault/repair replan, or apps still sitting on
	// dead hardware (a degraded pin the engine rejected, or no online
	// cluster could take them), keeps replanning on the fault backoff until
	// everything is hosted or the fault burst is over.
	if (m.faultReplanWanted || e.UnhostedApps() > 0) && e.Now()-m.lastFaultPlan >= faultReplanBackoffS {
		m.faultReplanWanted = false
		m.lastFaultPlan = e.Now()
		m.pending = true
	}
	if m.pending {
		m.Replan(e)
	}
}

// OnEvent implements sim.Controller.
func (m *Manager) OnEvent(e *sim.Engine, ev sim.Event) {
	switch ev.Kind {
	case sim.EvAppStart, sim.EvAppStop:
		m.Replan(e)
	case sim.EvThermalAlarm:
		m.pressure++
		if m.Logf != nil {
			m.Logf("rtm: t=%.2fs thermal alarm (%s), pressure=%d", ev.TimeS, ev.Detail(), m.pressure)
		}
		m.Replan(e)
	case sim.EvDeadlineMiss, sim.EvFrameDrop:
		m.misses++
	case sim.EvClusterFail, sim.EvClusterRepair:
		if ev.Kind == sim.EvClusterFail && !m.faultPending {
			m.faultPending = true
			m.faultAtS = ev.TimeS
		}
		if m.Logf != nil {
			m.Logf("rtm: t=%.2fs %s %s", ev.TimeS, ev.Kind, ev.Cluster)
		}
		if e.Now()-m.lastFaultPlan >= faultReplanBackoffS {
			m.lastFaultPlan = e.Now()
			m.Replan(e)
		} else {
			m.faultReplanWanted = true
		}
	}
}

// FaultRecoveries returns the recovery latencies measured so far: for each
// fault burst, the time from the first EvClusterFail to the first
// subsequent actuated (non-elided) replan. The slice is a copy.
func (m *Manager) FaultRecoveries() []float64 {
	return append([]float64(nil), m.recoveries...)
}

// buildView snapshots the engine and the manager's thermal stance into the
// read-only planning input, rebuilding the manager's scratch snapshot and
// requirement map in place. Apps and clusters are value copies from the
// engine snapshot and the requirement map is rebuilt per view, so handing
// the view to a policy exposes no internal mutable state.
func (m *Manager) buildView(e *sim.Engine) View {
	e.SnapshotInto(&m.snap)
	plat := e.Platform()
	margin := float64(m.pressure) * pressureStepC
	capW := plat.Thermal.PowerBudgetW(m.snap.AmbientC, plat.Thermal.ThrottleC-margin)
	if m.viewReqs == nil {
		m.viewReqs = map[string]Requirement{}
	}
	clear(m.viewReqs)
	v := View{
		NowS:        m.snap.TimeS,
		AmbientC:    m.snap.AmbientC,
		TempC:       m.snap.TempC,
		ThrottleC:   m.snap.ThrottleC,
		MarginC:     margin,
		DynBudgetMW: capW * 1000,
		Platform:    plat,
		Apps:        m.snap.Apps,
		Clusters:    m.snap.Clusters,
		Reqs:        m.viewReqs,
	}
	for _, a := range m.snap.Apps {
		if a.Kind == sim.KindDNN {
			m.viewReqs[a.Name] = m.Requirement(a.Name, a.PeriodS)
		}
	}
	return v
}

// fingerprint builds the elision key for sp, the manager's policy.
func (m *Manager) fingerprint(e *sim.Engine, sp sealedPolicy) planFingerprint {
	return planFingerprint{
		epoch:     e.PlanEpoch(),
		reqsVer:   m.reqsVer,
		policyVer: m.policyVer,
		pressure:  m.pressure,
		dyn:       sp.dynFingerprint(e, m),
	}
}

// Replan recomputes and actuates assignments for every running DNN app:
// build the view, delegate planning to the policy, actuate the plan.
//
// Elision sits in front of the policy, byte-identical to planning fresh:
// when the planning fingerprint is unchanged since the last planned
// replan, planning would reproduce the same plan and actuation would
// no-op — skip all of it. That replan's actuation left the engine at the
// plan's targets, or it moved a knob and with it the plan epoch, which
// only ever grows: then the fingerprint cannot match again. A knob the
// engine refused (a migration onto a full cluster) moves nothing, and
// the same plan would be refused again. Counters (last plan, LastView,
// Plans, miss reset) behave identically on both paths.
//
//detlint:hotpath
func (m *Manager) Replan(e *sim.Engine) {
	m.pending = false
	m.misses = 0
	m.plans++
	if e != m.eng {
		// Another engine's epoch says nothing about this one's, so the
		// next replan plans fresh.
		m.eng, m.lastFPOK = e, false
	}

	// Only a sealed policy is elided; the others plan every replan fresh.
	sp, sealed := m.policy.(sealedPolicy)
	var fp planFingerprint
	if sealed {
		fp = m.fingerprint(e, sp)
		if m.lastFPOK && fp == m.lastFP {
			m.elided++
			return
		}
	}

	v := m.buildView(e)
	// The policy gets its own clone: a policy that scribbles on its View's
	// runtime state cannot corrupt the copy actuation and LastView read
	// from. Built-in policies additionally plan through the manager-owned
	// scratch buffers (the allocation-free hot path); third-party policies
	// go through the public Plan contract.
	v.CloneInto(&m.policyView)
	var plan []Assignment
	if sealed {
		plan = sp.planInto(&m.policyView, &m.scratch)
	} else {
		plan = m.policy.Plan(m.policyView)
	}
	// The last-resort degradation guarantee: a pure function of (view,
	// plan) applied to whatever the policy returned.
	m.applyDegradedFallback(&v, plan)
	// Publish before any callback can run. plan aliases the policy's
	// scratch, which the next plan rewrites, so it is copied. v aliases
	// the snapshot scratch, which only the next fresh replan rewrites, and
	// that replan publishes its own view over it: the header is enough,
	// and LastView clones on read.
	m.last = append(m.last[:0], plan...)
	m.lastView = v
	if m.Logf != nil {
		for _, asg := range plan {
			//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
			m.Logf("rtm: t=%.2fs plan %s -> %s/%d cores, level %d, opp %d (pass %d, %.1fms, %.0fmW)",
				v.NowS, asg.App, asg.Placement.Cluster, asg.Placement.Cores, asg.Level,
				asg.OPPIndex, asg.Pass, asg.LatencyS*1000, asg.DynPowMW)
		}
	}
	m.actuate(e, v, plan)
	// An actuated plan closes the open fault burst: the policy has had its
	// say over the degraded hardware, so the recovery latency ends here.
	if m.faultPending {
		m.recoveries = append(m.recoveries, v.NowS-m.faultAtS)
		m.faultPending = false
	}
	// Arm elision for the next replan. fp was sampled before actuation;
	// if actuation moved a knob, PlanEpoch has moved past fp.epoch and no
	// later fingerprint equals fp, so only a fixed point is ever elided.
	m.lastFP, m.lastFPOK = fp, sealed
}

// applyDegradedFallback rewrites any assignment still targeting an offline
// cluster to the last-resort degraded pin: lowest level, minimum OPP, on
// the least-loaded online cluster that can take the app (a free core for
// CPUs, a level-1 memory fit for capped accelerators; accelerator duty may
// oversubscribe — in degraded mode a slow frame beats no frame). When
// every online CPU core is already planned away, the fallback shrinks a
// donor: the plan's largest CPU allocation on an online cluster gives up
// one core so the stranded app gets a seat — a greedy policy must not
// strand a low-priority app on dead silicon just because higher-priority
// apps claimed every core. Built-in policies already divert inside
// planning (see park), so this post-pass is the manager-level guarantee
// that holds for third-party policies — and for the no-seat-left case park
// cannot solve. It is a pure function of (view, plan) — no manager or
// engine state — and it leaves an assignment untouched only when no online
// cluster can possibly host the app (the OnTick fault retry keeps
// replanning until a repair changes that).
func (m *Manager) applyDegradedFallback(v *View, plan []Assignment) {
	anyOffline := false
	for i := range v.Clusters {
		if !v.Clusters[i].Online {
			anyOffline = true
			break
		}
	}
	if !anyOffline {
		return
	}
	clusterIdx := func(name string) int {
		for j := range v.Platform.Clusters {
			if v.Platform.Clusters[j].Name == name {
				return j
			}
		}
		return -1
	}
	// Planned CPU-core commitments per cluster: non-DNN co-runners keep
	// their current cores, DNNs occupy what the plan gives them. This is
	// the capacity the engine will enforce at migration time, so pins that
	// respect it actuate cleanly.
	used := reuse(m.degradedUsed, len(v.Platform.Clusters))
	m.degradedUsed = used
	for _, a := range v.Apps {
		if a.Running && a.Kind != sim.KindDNN {
			if cj := clusterIdx(a.Placement.Cluster); cj >= 0 && !v.Platform.Clusters[cj].Type.IsAccelerator() {
				used[cj] += a.Placement.Cores
			}
		}
	}
	for i := range plan {
		if cj := clusterIdx(plan[i].Placement.Cluster); cj >= 0 && !v.Platform.Clusters[cj].Type.IsAccelerator() {
			used[cj] += plan[i].Placement.Cores
		}
	}
	// donate takes one core from the plan's largest allocation able to
	// spare one: two cores or more on an online CPU cluster (cluster only,
	// when only is not -1), entry skip excluded. Ties go to the earliest
	// entry in plan order. It returns the donor's cluster index, or -1 when
	// no entry qualifies.
	donate := func(skip, only int) int {
		donor, donorCl := -1, -1
		for j := range plan {
			cj := clusterIdx(plan[j].Placement.Cluster)
			if j == skip || cj < 0 || (only >= 0 && cj != only) || !v.ClusterOnline(cj) ||
				v.Platform.Clusters[cj].Type.IsAccelerator() || plan[j].Placement.Cores < 2 {
				continue
			}
			if donor < 0 || plan[j].Placement.Cores > plan[donor].Placement.Cores {
				donor, donorCl = j, cj
			}
		}
		if donor >= 0 {
			plan[donor].Placement.Cores--
			used[donorCl]--
		}
		return donorCl
	}
	// Normalise over-committed CPU clusters: refugees from a dead cluster
	// pile onto the survivors on top of apps parked at their pre-fault core
	// counts, and a plan that books more cores than exist can never fully
	// actuate — the engine rejects the move-ins and every retry regenerates
	// the same dead-locked plan. Shrink the largest allocation one core at
	// a time until the books balance or every seat is down to one core.
	for cj, cl := range v.Platform.Clusters {
		if cl.Type.IsAccelerator() || !v.ClusterOnline(cj) {
			continue
		}
		for used[cj] > cl.Cores && donate(-1, cj) >= 0 {
		}
	}
	for i := range plan {
		asg := &plan[i]
		ci := clusterIdx(asg.Placement.Cluster)
		if ci < 0 || v.ClusterOnline(ci) {
			continue
		}
		var app *sim.AppInfo
		for j := range v.Apps {
			if v.Apps[j].Name == asg.App {
				app = &v.Apps[j]
				break
			}
		}
		if app == nil {
			continue
		}
		// Strict pass: an online cluster with a planned seat free.
		best, bestLoad := -1, 0.0
		for cj, cl := range v.Platform.Clusters {
			if !v.ClusterOnline(cj) {
				continue
			}
			var load float64
			if cl.Type.IsAccelerator() {
				if cj < len(v.Clusters) && cl.MemBytes > 0 && app.ModelBytes > 0 &&
					app.ModelBytes/int64(app.Profile.MaxLevel()) > v.Clusters[cj].MemFree {
					continue
				}
				if cj < len(v.Clusters) {
					load = v.Clusters[cj].Util
				}
			} else {
				if used[cj] >= cl.Cores {
					continue
				}
				load = float64(used[cj]) / float64(cl.Cores)
			}
			if best == -1 || load < bestLoad {
				best, bestLoad = cj, load
			}
		}
		// Donor pass: shrink the largest planned CPU allocation on an
		// online cluster by one core.
		if best < 0 {
			best = donate(i, -1)
		}
		if best < 0 {
			continue
		}
		cl := v.Platform.Clusters[best]
		asg.Placement = sim.Placement{Cluster: cl.Name, Cores: clApplyCores(cl, 1)}
		asg.Level = 1
		asg.OPPIndex = 0
		asg.Pass = 3
		if !cl.Type.IsAccelerator() {
			used[best]++
		}
	}
}

// actuate applies the plan: level reductions first (to release
// accelerator memory), then migrations, then level increases, then
// per-cluster OPPs. The per-cluster DVFS floor is derived from the plan
// itself (the highest OPP any assignment committed on the cluster) plus
// the render pin, so actuation depends only on (view, plan) — not on
// policy-internal ledgers. Actuation calls the engine directly; the
// knobs KnobsAndMonitors names are these actuators.
//
//detlint:hotpath
func (m *Manager) actuate(e *sim.Engine, v View, plan []Assignment) {
	// The view was snapshotted from this engine within the same replan, so
	// it *is* the current state — indexing it avoids re-querying the
	// engine. cur follows each app through actuation, indexed like
	// v.Apps; planApp[i] is plan[i]'s index there.
	m.cur = m.cur[:0]
	for i := range v.Apps {
		m.cur = append(m.cur, appCur{placement: v.Apps[i].Placement, level: v.Apps[i].Level})
	}
	m.planApp = m.planApp[:0]
	for i := range plan {
		j := -1
		for k := range v.Apps {
			if v.Apps[k].Name == plan[i].App {
				j = k
				break
			}
		}
		m.planApp = append(m.planApp, j)
	}
	for i, asg := range plan {
		if asg.Level < m.curOf(i).level {
			m.setLevel(e, asg.App, asg.Level)
		}
	}
	// Migrations run in three waves ordered so freed capacity is visible
	// within the same plan: same-cluster core shrinks first (they free CPU
	// cores a move-in on that cluster needs), then apps vacating a
	// memory-constrained accelerator (freeing memory), then everything
	// else.
	for want := 0; want < 3; want++ {
		for i, asg := range plan {
			cur := m.curOf(i)
			if asg.Placement == cur.placement {
				continue
			}
			fromCl := e.Platform().Cluster(cur.placement.Cluster)
			wave := 2
			switch {
			case asg.Placement.Cluster == cur.placement.Cluster && asg.Placement.Cores < cur.placement.Cores:
				wave = 0
			case fromCl != nil && fromCl.MemBytes > 0:
				wave = 1
			}
			if wave != want {
				continue
			}
			if err := e.Migrate(asg.App, asg.Placement); err != nil {
				if m.Logf != nil {
					//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
					m.Logf("rtm: migrate %s: %v", asg.App, err)
				}
			} else if j := m.planApp[i]; j >= 0 {
				m.cur[j].placement = asg.Placement
			}
		}
	}
	for i, asg := range plan {
		if asg.Level > m.curOf(i).level {
			m.setLevel(e, asg.App, asg.Level)
		}
	}
	// DVFS: clusters hosting DNNs get the highest OPP their assignments
	// committed; render clusters run flat out; everything else drops to
	// minimum.
	for _, cl := range e.Platform().Clusters {
		idx := 0
		for i := range v.Apps {
			if a := &v.Apps[i]; a.Running && a.Kind == sim.KindRender && a.Placement.Cluster == cl.Name {
				idx = len(cl.OPPs) - 1
				break
			}
		}
		for _, asg := range plan {
			if asg.Placement.Cluster == cl.Name && asg.OPPIndex > idx {
				idx = asg.OPPIndex
			}
		}
		if err := e.SetOPP(cl.Name, idx); err != nil && m.Logf != nil {
			//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
			m.Logf("rtm: opp %s=%d: %v", cl.Name, idx, err)
		}
	}
}

// curOf is plan[i]'s app as actuation currently sees it; an app the view
// lacks reads as the zero state.
func (m *Manager) curOf(i int) appCur {
	if j := m.planApp[i]; j >= 0 {
		return m.cur[j]
	}
	return appCur{}
}

// setLevel actuates one app's level, logging a rejection.
//
//detlint:hotpath
func (m *Manager) setLevel(e *sim.Engine, app string, level int) {
	if err := e.SetLevel(app, level); err != nil && m.Logf != nil {
		//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
		m.Logf("rtm: level %s=%d: %v", app, level, err)
	}
}

var _ sim.Controller = (*Manager)(nil)

// String renders an assignment for reports.
func (a Assignment) String() string {
	return fmt.Sprintf("%s -> %s/%d L%d opp%d (%.1fms, pass %d)",
		a.App, a.Placement.Cluster, a.Placement.Cores, a.Level, a.OPPIndex, a.LatencyS*1000, a.Pass)
}
