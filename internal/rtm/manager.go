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

	"github.com/emlrtm/emlrtm/internal/hw"
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

// AppRequirement is one app's requirement, keyed by the app's name.
type AppRequirement struct {
	App string
	Requirement
}

// Requirements lists per-app requirements. An app named more than once
// takes its later entry; an app not named gets defaults (latency =
// period, accuracy unconstrained, priority 0).
type Requirements []AppRequirement

// index returns the position of app's entry, the later one if it is
// named twice, or -1. An engine runs at most 64 apps, so the scan is
// short.
func (rs Requirements) index(app string) int {
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].App == app {
			return i
		}
	}
	return -1
}

// resolve returns app's requirement with defaults applied: its entry, or
// the zero requirement when it has none, with a zero MaxLatencyS read as
// the app's frame period periodS.
func (rs Requirements) resolve(app string, periodS float64) Requirement {
	var r Requirement
	if i := rs.index(app); i >= 0 {
		r = rs[i].Requirement
	}
	if r.MaxLatencyS == 0 {
		r.MaxLatencyS = periodS
	}
	return r
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
	// missReplanThreshold triggers a replan after this many failed frames
	// (deadline misses and frame drops, sim.Engine.FailedFrames) since
	// the previous plan.
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
	reqs Requirements // owned: Reset copies the caller's entries in

	// Logf, when set, receives planning decisions.
	Logf func(format string, args ...any)

	policy Policy
	// sealed is policy's elision seam, nil for a policy without one,
	// resolved whenever the policy is set (see sealedOf).
	sealed   sealedPolicy
	eng      *sim.Engine // the engine the last Replan ran against
	pressure int
	pending  bool
	plans    int
	// miss and retry are the manager's two tick triggers, each one term
	// that OnTick fires on when it holds and NextWake hands the engine
	// (see triggers). miss.Failed is a watermark on eng's FailedFrames,
	// missReplanThreshold above their count at the last Replan, and
	// miss.SinceS the time of the last miss-triggered replan; retry.SinceS
	// is the time of the last fault-triggered replan, whose backoff OnEvent
	// waits out too.
	miss, retry sim.WakeTerm
	// last is the last actuated plan; white-box tests read it. It aliases
	// the plan the policy returned, which only its next plan rewrites.
	last []Assignment
	// lastView is the view the latest replan built, elided or not: the
	// engine snapshot and requirements, rebuilt in place by each replan.
	// LastView clones it.
	lastView View

	// Fault-replan state: faultPending marks an open fault burst (recovery
	// latency is measured from faultAtS to the next actuated replan),
	// faultReplanWanted defers a fault/repair-triggered replan that landed
	// inside the backoff window to a later tick, and recoverN and
	// recoverTotalS count the measured latencies and sum them, in the
	// order measured, for fleet reporting.
	faultPending      bool
	faultReplanWanted bool
	faultAtS          float64
	recoverN          int
	recoverTotalS     float64

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
	// planning input (lastView), the policy's working buffers (and the
	// clone a policy from outside the package plans over) and the
	// actuation indexes are all rebuilt in place instead of reallocated.
	// Handed-out state stays defensive — LastView copies on read. Reset
	// keeps these buffers and nothing else.
	scratch planScratch
	cur     []appCur // actuation's view of each View.Apps entry
	planApp []int    // View.Apps index of each plan entry's app, or -1
}

// appCur is the part of an app's state actuation moves: where it runs and
// at which level.
type appCur struct {
	placement sim.Placement
	level     int
}

// NewManager builds a manager with the given per-app requirements (an app
// named twice takes its later entry; apps without an entry get defaults:
// latency = period, accuracy unconstrained, priority 0) and the default
// heuristic policy. The manager copies reqs and never writes to it.
func NewManager(reqs Requirements) *Manager {
	m := &Manager{}
	m.Reset(reqs)
	return m
}

// Reset returns the manager to the state NewManager(reqs) builds: the
// default heuristic policy, no Logf, no thermal pressure, no
// miss, fault, recovery or plan history, no elision fingerprint and no
// engine. Only the replan scratch buffers survive, their work counters
// zeroed, so a caller running scenario after scenario on one manager (a
// fleet worker) replans without regrowing them; a Reset manager plans
// exactly as a new one does. The requirements are copied into a slice the
// manager owns and reuses, so SetRequirement never writes to reqs, which a
// fleet workload's policy runs share.
func (m *Manager) Reset(reqs Requirements) {
	*m = Manager{
		reqs:   append(m.reqs[:0], reqs...),
		miss:   sim.WakeTerm{Failed: missReplanThreshold, AfterS: missReplanBackoffS},
		retry:  sim.WakeTerm{SinceS: math.Inf(-1), AfterS: faultReplanBackoffS},
		policy: heuristicPolicy,
		sealed: heuristicPolicy,

		lastView: View{Snapshot: sim.Snapshot{Apps: m.lastView.Apps[:0], Clusters: m.lastView.Clusters[:0]},
			Reqs: m.lastView.Reqs[:0]},
		scratch: m.scratch,
		cur:     m.cur[:0],
		planApp: m.planApp[:0],
	}
	m.scratch.st.evals, m.scratch.st.latencies = 0, 0
}

// SetPolicy swaps the planning policy and schedules a replan so the swap
// takes effect at the next controller tick. A nil policy is ignored.
func (m *Manager) SetPolicy(p Policy) {
	if p == nil {
		return
	}
	m.policy, m.sealed = p, sealedOf(p)
	m.policyVer++
	m.pending = true
}

// SetRequirement installs or replaces an app's requirement at runtime (the
// Fig 2(d) event: "the accuracy requirement of the second DNN is reduced")
// and schedules a replan. It replaces the app's entry, or appends one.
func (m *Manager) SetRequirement(app string, r Requirement) {
	if i := m.reqs.index(app); i >= 0 {
		m.reqs[i].Requirement = r
	} else {
		m.reqs = append(m.reqs, AppRequirement{App: app, Requirement: r})
	}
	m.reqsVer++
	m.pending = true
}

// Requirement returns the requirement for an app (with defaults applied).
func (m *Manager) Requirement(app string, periodS float64) Requirement {
	return m.reqs.resolve(app, periodS)
}

// Plans returns how many replans have executed.
func (m *Manager) Plans() int { return m.plans }

// PlanStats reports the manager's plan-reuse counters, total replans and
// elided replans, and the planners' work counters. The counters are
// observability only — they never enter simulation reports, whose bytes
// must not depend on reuse; the allocation gate pins them per run.
func (m *Manager) PlanStats() PlanStats {
	return PlanStats{Plans: m.plans, Elided: m.elided,
		Evals: m.scratch.st.evals, Latencies: m.scratch.st.latencies}
}

// LastView returns a copy of the view the most recent replan built — the
// read-only planning input, for inspection and tests. An elided replan
// builds one too, so LastView is the same whether the latest replan
// planned or was elided. The copy is defensive: callers cannot reach
// manager or engine state through it, nor can a third-party policy
// through the clone it plans over.
func (m *Manager) LastView() View { return m.lastView.Clone() }

// KnobsAndMonitors names, sorted, the Fig 5 interface of the engine the
// manager last planned against, as the latest replan's view shows it:
// each DNN's level knob (app.<dnn>.level) and accuracy and latency
// monitors, each cluster's DVFS knob (dev.<cluster>.opp), and the
// platform's power and temperature monitors. Both lists are nil before
// the first plan. Policies never see the names: they plan over the
// read-only View, and the manager actuates the engine directly.
func (m *Manager) KnobsAndMonitors() (knobs, monitors []string) {
	v := &m.lastView
	if v.Platform == nil {
		return nil, nil
	}
	for _, a := range v.Apps {
		if a.Kind == sim.KindDNN {
			knobs = append(knobs, "app."+a.Name+".level")
			monitors = append(monitors, "app."+a.Name+".accuracy", "app."+a.Name+".latency")
		}
	}
	for _, cl := range v.Platform.Clusters {
		knobs = append(knobs, "dev."+cl.Name+".opp")
	}
	monitors = append(monitors, "dev.power", "dev.temperature")
	slices.Sort(knobs)
	slices.Sort(monitors)
	return knobs, monitors
}

// triggers returns the manager's tick triggers on e: the miss term, whose
// watermark counts every frame failed since e's Reset when e is not the
// engine the manager last planned on (before its first plan, too), and
// whether the fault retry is armed, which it is while a fault replan is
// wanted or apps are unhosted.
func (m *Manager) triggers(e *sim.Engine) (miss sim.WakeTerm, retrying bool) {
	miss = m.miss
	if e != m.eng {
		miss.Failed = missReplanThreshold
	}
	return miss, m.faultReplanWanted || e.UnhostedApps() > 0
}

// OnTick implements sim.Controller. It is the manager's epoch: it decays
// thermal pressure, fires the miss trigger and the fault retry when their
// terms hold (see triggers), then replans if any of them asks. A fault
// retry replans a deferred fault/repair replan, or apps still sitting on
// dead hardware (a degraded pin the engine rejected, or no online cluster
// could take them), on the fault backoff until everything is hosted or
// the fault burst is over. The engine calls OnTick only on the ticks
// NextWake makes due, which are all the ticks on which it can do any of
// this.
//
//detlint:hotpath
func (m *Manager) OnTick(e *sim.Engine) {
	// Thermal pressure decays when the die has cooled well below the trip
	// point, restoring performance headroom.
	if m.pressure > 0 && e.Temperature() < e.ThrottleC()-6 {
		m.pressure--
		m.pending = true
	}
	now, failed := e.Now(), e.FailedFrames()
	miss, retrying := m.triggers(e)
	if miss.Holds(now, failed) {
		m.pending = true
		m.miss.SinceS = now
	}
	if retrying && m.retry.Holds(now, failed) {
		m.faultReplanWanted = false
		m.retry.SinceS = now
		m.pending = true
	}
	if m.pending {
		m.Replan(e)
	}
}

// NextWake implements sim.Waker with the terms OnTick fires on: every
// tick is due while a replan is pending or thermal pressure is held (its
// decay reads the temperature); otherwise a tick is due when the miss
// trigger holds, or the fault retry while it is armed.
//
//detlint:hotpath
func (m *Manager) NextWake(e *sim.Engine) sim.Wake {
	if m.pending || m.pressure > 0 {
		return sim.Wake{Every: true}
	}
	var w sim.Wake
	miss, retrying := m.triggers(e)
	if retrying {
		w.Add(m.retry)
	}
	w.Add(miss)
	return w
}

// OnEvent implements sim.Controller: an app start or stop replans, a
// thermal alarm raises the pressure and replans, and a cluster fault or
// repair replans unless the fault backoff defers it to a tick. Failed
// frames are no event; OnTick reads their count.
//
//detlint:hotpath
func (m *Manager) OnEvent(e *sim.Engine, ev sim.Event) {
	switch ev.Kind {
	case sim.EvAppStart, sim.EvAppStop:
		m.Replan(e)
	case sim.EvThermalAlarm:
		m.pressure++
		if m.Logf != nil {
			//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
			m.Logf("rtm: t=%.2fs thermal alarm (%s), pressure=%d", ev.TimeS, ev.Detail(), m.pressure)
		}
		m.Replan(e)
	case sim.EvClusterFail, sim.EvClusterRepair:
		if ev.Kind == sim.EvClusterFail && !m.faultPending {
			m.faultPending = true
			m.faultAtS = ev.TimeS
		}
		if m.Logf != nil {
			//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
			m.Logf("rtm: t=%.2fs %s %s", ev.TimeS, ev.Kind, ev.Cluster)
		}
		if m.retry.Holds(e.Now(), e.FailedFrames()) {
			m.retry.SinceS = e.Now()
			m.Replan(e)
		} else {
			m.faultReplanWanted = true
		}
	}
}

// Recoveries returns how many fault bursts have recovered and the sum of
// their recovery latencies, added in the order they were measured. A
// burst's recovery latency is the time from its first EvClusterFail to
// the first actuated (non-elided) replan after it.
func (m *Manager) Recoveries() (n int, totalS float64) { return m.recoverN, m.recoverTotalS }

// buildView rebuilds lastView, the read-only planning input, in place and
// returns it: the engine writes its snapshot straight into the view, and
// the manager adds its thermal stance and one resolved requirement per
// DNN app, in Apps order. Apps and clusters are value copies of engine
// state, so the view exposes no internal mutable state.
func (m *Manager) buildView(e *sim.Engine) *View {
	v := &m.lastView
	e.SnapshotInto(&v.Snapshot)
	th := &v.Platform.Thermal
	v.MarginC = float64(m.pressure) * pressureStepC
	v.DynBudgetMW = th.PowerBudgetW(v.AmbientC, th.ThrottleC-v.MarginC) * 1000
	v.Reqs = v.Reqs[:0]
	for i := range v.Apps {
		if a := &v.Apps[i]; a.Kind == sim.KindDNN {
			v.Reqs = append(v.Reqs, AppRequirement{App: a.Name, Requirement: m.Requirement(a.Name, a.PeriodS)})
		}
	}
	return v
}

// fingerprint builds the elision key for sp, the manager's policy, over
// the view in lastView; ok is false when sp must plan every replan.
func (m *Manager) fingerprint(e *sim.Engine, sp sealedPolicy) (fp planFingerprint, ok bool) {
	dyn, ok := sp.dynFingerprint(&m.lastView)
	return planFingerprint{
		epoch:     e.PlanEpoch(),
		reqsVer:   m.reqsVer,
		policyVer: m.policyVer,
		pressure:  m.pressure,
		dyn:       dyn,
	}, ok
}

// Replan recomputes and actuates assignments for every running DNN app:
// build the view, delegate planning to the policy, actuate the plan. The
// view is the replan's one copy of the planning input: the engine writes
// its snapshot into it, a sealed policy plans over it in place, and only
// a third-party policy gets a clone.
//
// Elision sits between the view and the policy, byte-identical to
// planning fresh: when the planning fingerprint is unchanged since the
// last planned replan, planning would reproduce the same plan and
// actuation would no-op — skip both. That replan's actuation left the
// engine at the plan's targets, or it moved a knob and with it the plan
// epoch, which only ever grows: then the fingerprint cannot match again.
// A knob the engine refused (a migration onto a full cluster) moves
// nothing, and the same plan would be refused again. Counters (Plans,
// miss reset) and LastView behave identically on both paths; the last
// actuated plan is the one an elided replan would have planned.
//
//detlint:hotpath
func (m *Manager) Replan(e *sim.Engine) {
	m.pending = false
	m.plans++
	if e != m.eng {
		// Another engine's epoch says nothing about this one's, so the
		// next replan plans fresh.
		m.eng, m.lastFPOK = e, false
	}
	m.miss.Failed = e.FailedFrames() + missReplanThreshold

	// The view is built once, into lastView, and published before any
	// callback can run: the fingerprint reads it, and an elided replan
	// leaves it as the latest view. The next replan rewrites it in place,
	// so LastView clones on read.
	v := m.buildView(e)
	// Only a sealed policy that opts in is elided; the others plan every
	// replan fresh.
	sp := m.sealed
	var fp planFingerprint
	elidable := false
	if sp != nil {
		fp, elidable = m.fingerprint(e, sp)
		if elidable && m.lastFPOK && fp == m.lastFP {
			m.elided++
			return
		}
	}

	// A sealed policy plans over the view in place, through the
	// manager-owned scratch buffers (the allocation-free hot path), and
	// never writes it. A third-party policy goes through the public Plan
	// contract over a clone: one that scribbles on its View's runtime
	// state cannot corrupt the view actuation and LastView read.
	var plan []Assignment
	if sp != nil {
		plan = sp.planInto(v, &m.scratch)
	} else {
		plan = m.scratch.planOutside(m.policy, v)
	}
	// The last-resort degradation guarantee: a pure function of (view,
	// plan) applied to whatever the policy returned.
	m.applyDegradedFallback(v, plan)
	m.last = plan
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
		m.recoverN++
		m.recoverTotalS += v.NowS - m.faultAtS
		m.faultPending = false
	}
	// Arm elision for the next replan. fp was sampled before actuation;
	// if actuation moved a knob, PlanEpoch has moved past fp.epoch and no
	// later fingerprint equals fp, so only a fixed point is ever elided.
	m.lastFP, m.lastFPOK = fp, elidable
}

// applyDegradedFallback is the manager-level guarantee that a plan leaves
// no app on dead silicon while the platform can seat it, whichever policy
// made the plan. It keeps no books of its own: it rebuilds the planners'
// ledger in the manager's scratch (planState.init) and charges the plan to
// it as commit would — cores on a CPU cluster, model memory and duty on an
// accelerator. Then:
//
//   - Normalise. Refugees from a dead cluster pile onto the survivors on
//     top of apps parked at their pre-fault core counts, and a plan that
//     books more cores than a cluster has can never fully actuate: the
//     engine rejects the move-ins and every retry regenerates the same
//     dead-locked plan. Each over-committed online CPU cluster gives up
//     cores through donate until its books balance or every entry on it
//     is down to one core.
//   - Pin. Each entry still on an offline cluster goes where park would
//     send it: degradedPin picks the seat, pinCandidate prices it and
//     commit charges it. With no seat left, donate frees one — a greedy
//     policy must not strand a low-priority app on dead silicon just
//     because higher-priority apps claimed every core.
//
// Built-in policies already pin inside planning (park), so for them the
// pin step only ever pins through a donor; for a third-party policy it is
// the whole guarantee. Every entry it rewrites reports its own latency and
// accuracy. It reads only (view, plan), and it leaves an entry on a dead
// cluster only when degradedPin finds no seat and no CPU allocation has a
// core to spare (the OnTick fault retry keeps replanning until a repair
// changes that). An entry naming an app or cluster the view lacks is left
// alone.
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
	st := &m.scratch.st
	st.init(v)
	for _, asg := range plan {
		ci := st.clusterIndex(asg.Placement.Cluster)
		if ci < 0 || !st.online[ci] {
			continue
		}
		cl := st.clusters[ci]
		if !cl.Type.IsAccelerator() {
			st.freeCores[ci] -= asg.Placement.Cores
		} else if j := v.appIndex(asg.App); j >= 0 {
			a := &v.Apps[j]
			st.freeDuty[ci] -= hw.Duty(asg.LatencyS, a.PeriodS)
			if cl.MemBytes > 0 && a.ModelBytes > 0 {
				st.freeMem[ci] -= a.Profile.ResidentBytes(a.ModelBytes, asg.Level)
			}
		}
	}
	for ci, cl := range st.clusters {
		if cl.Type.IsAccelerator() || !st.online[ci] {
			continue
		}
		for st.freeCores[ci] < 0 && donate(st, v, plan, -1, ci) >= 0 {
		}
	}
	for i := range plan {
		ci, j := st.clusterIndex(plan[i].Placement.Cluster), v.appIndex(plan[i].App)
		if ci < 0 || st.online[ci] || j < 0 {
			continue
		}
		a := &v.Apps[j]
		best := degradedPin(st, a)
		if best < 0 {
			best = donate(st, v, plan, i, -1)
		}
		if best >= 0 {
			c := pinCandidate(st, a, best)
			st.commit(a, &c, 3, &plan[i])
		}
	}
}

// donate takes one core from the plan's largest allocation able to spare
// one: two cores or more on an online CPU cluster (cluster only, when only
// is not -1), entry skip excluded, ties to the earliest entry in plan
// order. The core goes back to the ledger, and the donor's latency is
// recomputed at its new core count. It returns the donor's cluster index,
// or -1 when no entry qualifies.
func donate(st *planState, v *View, plan []Assignment, skip, only int) int {
	donor, ci := -1, -1
	for j := range plan {
		cj := st.clusterIndex(plan[j].Placement.Cluster)
		if j == skip || cj < 0 || (only >= 0 && cj != only) || !st.online[cj] ||
			st.clusters[cj].Type.IsAccelerator() || plan[j].Placement.Cores < 2 {
			continue
		}
		if donor < 0 || plan[j].Placement.Cores > plan[donor].Placement.Cores {
			donor, ci = j, cj
		}
	}
	if donor < 0 {
		return -1
	}
	d, cl := &plan[donor], st.clusters[ci]
	d.Placement.Cores--
	st.freeCores[ci]++
	// A third-party entry may name a level or OPP that does not exist;
	// actuation refuses it, and its latency is left as the policy gave it.
	if k := v.appIndex(d.App); k >= 0 && d.Level >= 1 && d.Level <= v.Apps[k].Profile.MaxLevel() &&
		d.OPPIndex >= 0 && d.OPPIndex < len(cl.OPPs) {
		d.LatencyS = st.latencyS(ci, cl.OPPs[d.OPPIndex], d.Placement.Cores, v.Apps[k].Profile.Level(d.Level).MACs)
	}
	return ci
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
func (m *Manager) actuate(e *sim.Engine, v *View, plan []Assignment) {
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
		m.planApp = append(m.planApp, v.appIndex(plan[i].App))
	}
	for i := range plan {
		if asg := &plan[i]; asg.Level < m.curOf(i).level {
			m.setLevel(e, asg.App, asg.Level)
		}
	}
	// Migrations run in three waves ordered so freed capacity is visible
	// within the same plan: same-cluster core shrinks first (they free CPU
	// cores a move-in on that cluster needs), then apps vacating a
	// memory-constrained accelerator (freeing memory), then everything
	// else.
	for want := 0; want < 3; want++ {
		for i := range plan {
			asg, cur := &plan[i], m.curOf(i)
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
			if r := e.TryMigrate(asg.App, asg.Placement); r.Refused() {
				if m.Logf != nil {
					//detlint:allow hotalloc boxing the operands only happens with a logger set; fleet runs set none
					m.Logf("rtm: migrate %s: %v", asg.App, r.Err())
				}
			} else if j := m.planApp[i]; j >= 0 {
				m.cur[j].placement = asg.Placement
			}
		}
	}
	for i := range plan {
		if asg := &plan[i]; asg.Level > m.curOf(i).level {
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
		for i := range plan {
			if asg := &plan[i]; asg.Placement.Cluster == cl.Name && asg.OPPIndex > idx {
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

var (
	_ sim.Controller = (*Manager)(nil)
	_ sim.Waker      = (*Manager)(nil)
)

// String renders an assignment for reports.
func (a Assignment) String() string {
	return fmt.Sprintf("%s -> %s/%d L%d opp%d (%.1fms, pass %d)",
		a.App, a.Placement.Cluster, a.Placement.Cores, a.Level, a.OPPIndex, a.LatencyS*1000, a.Pass)
}
