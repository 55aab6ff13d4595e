package sim

import (
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// hKind enumerates internal scheduler events (a superset of the observable
// Event kinds).
type hKind int

const (
	hStart hKind = iota
	hStop
	hRelease
	hComplete
	hUnblock
	hTick
	hThermal
)

// hevent is one scheduled event. app is the index into Engine.appList
// (-1 for app-less events): the hot loop never touches the name-keyed app
// map.
type hevent struct {
	t    float64
	seq  int64
	kind hKind
	app  int32
}

// eventHeap is a typed, index-based binary min-heap of scheduler events
// ordered by (t, seq). push and pop sift inline over the backing array and
// keep it when the heap drains, so the steady-state simulation loop does
// no heap allocations — unlike container/heap, whose interface boxes every
// pushed element through `any`.
type eventHeap []hevent

// before is the heap order: earliest time first, insertion sequence as the
// tie-break (so simultaneous events pop in schedule order).
func (h eventHeap) before(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

// push inserts an event, reusing the slice's spare capacity.
//
//detlint:hotpath
func (h *eventHeap) push(ev hevent) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the minimum event. The backing array is kept for
// future pushes.
//
//detlint:hotpath
func (h *eventHeap) pop() hevent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.before(r, child) {
			child = r
		}
		if !s.before(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

func (e *Engine) push(t float64, kind hKind, app int32) int64 {
	e.seq++
	e.events.push(hevent{t: t, seq: e.seq, kind: kind, app: app})
	return e.seq
}

// Run executes the simulation until endS seconds. Calling Run again on
// the same engine continues from the accumulated state (warm caches,
// stats and all — the rtm tests use this to extend a managed run); use
// Reset to rewind to the pristine state a fresh New would build.
//
//detlint:hotpath
func (e *Engine) Run(endS float64) error {
	if endS <= 0 {
		//detlint:allow hotalloc one-time argument validation; never reached by the steady-state loop
		return fmt.Errorf("sim: end time %f must be positive", endS)
	}
	e.endS = endS
	for _, a := range e.appList {
		e.push(a.StartS, hStart, a.idx)
		if a.StopS > 0 {
			e.push(a.StopS, hStop, a.idx)
		}
	}
	if e.tickS > 0 && e.ctrl != nil {
		e.push(e.tickS, hTick, -1)
	}
	e.rescheduleThermal()

	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.t > endS {
			break
		}
		e.advanceTo(ev.t)
		e.handle(ev)
		e.refresh()
	}
	e.advanceTo(endS)
	return nil
}

// advanceTo integrates the piecewise-constant segment [now, t]: job
// progress, per-cluster energy, and the thermal state.
//
//detlint:hotpath
func (e *Engine) advanceTo(t float64) {
	dt := t - e.now
	if dt <= 0 {
		e.now = t
		return
	}
	totalMW := 0.0
	for _, cs := range e.clusterList {
		util := e.clusterUtilOf(cs)
		pw := cs.cachedPow
		cs.lastPow = pw
		cs.energy += pw * dt
		if util > 0 {
			cs.busyS += dt
		}
		totalMW += pw
	}
	e.totalEnergy += totalMW * dt

	// Job progress.
	for _, a := range e.appList {
		if a.Kind != KindDNN || !a.jobActive {
			continue
		}
		rate := e.jobRate(a)
		if rate > 0 && e.now >= a.blockedUntil {
			a.jobRemaining -= rate * dt
			if a.jobRemaining < 0 {
				a.jobRemaining = 0
			}
		}
	}
	// Unhosted integration: running DNNs whose placement cluster is offline
	// accumulate app-seconds of lost service until a replan moves them.
	if e.offline > 0 {
		for _, a := range e.appList {
			if a.Kind == KindDNN && a.started && !a.stopped && !a.placedCS.online {
				e.unhostedS += dt
			}
		}
	}

	// Thermal integration (exact within the segment).
	tempBefore := e.thermal.TempC
	e.thermal.Step(e.plat.Thermal, e.ambient, totalMW/1000, dt)
	tempAfter := e.thermal.TempC
	if tempAfter > e.maxTempC {
		e.maxTempC = tempAfter
	}
	mid := (tempBefore + tempAfter) / 2
	if mid > e.plat.Thermal.ThrottleC {
		e.overThrotS += dt
	}
	if mid > e.plat.Thermal.CriticalC {
		e.overCritS += dt
	}
	if e.alarmed && tempAfter < e.plat.Thermal.ThrottleC-2 {
		e.alarmed = false
	}
	prev := e.now
	e.now = t
	// The cached utilisations and rates were computed under the old clock.
	// They only read it through the blocked-until predicates, so advancing
	// time invalidates them solely while some migration downtime window is
	// still open — in steady state the caches survive the advance and the
	// post-event refresh reuses them.
	if prev < e.maxBlockedUntil {
		e.touchAll()
	}
}

// touch marks a cluster's derived values stale after a mutation they can
// observe, by stamping the cluster with a fresh value of the engine-wide
// counter. The companion CPU is stamped too, because its utilisation reads
// this cluster's any-active-DNN predicate. Stamps are never reused, so a
// tag taken on one cluster cannot match another cluster's stamp after a
// migration.
func (e *Engine) touch(cs *clusterState) {
	e.stateVer++
	cs.ver = e.stateVer
	if cs.companion != nil {
		cs.companion.ver = e.stateVer
	}
}

// touchAll marks every cluster's derived values stale.
func (e *Engine) touchAll() {
	e.stateVer++
	for _, cs := range e.clusterList {
		cs.ver = e.stateVer
	}
}

// clusterUtilOf returns a cluster's aggregate dynamic-power utilisation
// fraction in [0,1] through the derived-value cache, recomputing only when
// the cluster's stamp moved. The matching busy
// power is computed and cached alongside — every hot caller that needs one
// needs the other within the same piecewise-constant segment.
func (e *Engine) clusterUtilOf(cs *clusterState) float64 {
	if cs.utilVer != cs.ver {
		if cs.online {
			cs.cachedUtil = e.computeClusterUtil(cs)
			cs.cachedPow = cs.c.BusyPowerMW(cs.c.OPPs[cs.oppIdx], cs.c.Cores, cs.cachedUtil)
		} else {
			// A failed cluster runs nothing and draws nothing — not even
			// static power: the domain is dead, not idle.
			cs.cachedUtil, cs.cachedPow = 0, 0
		}
		cs.utilVer = cs.ver
	}
	return cs.cachedUtil
}

// clusterPowerMW returns the cluster's instantaneous busy power via the
// same cache as clusterUtilOf.
func (e *Engine) clusterPowerMW(cs *clusterState) float64 {
	e.clusterUtilOf(cs)
	return cs.cachedPow
}

// computeClusterUtil computes a cluster's utilisation: resident DNN jobs
// run their cores flat out, render and background apps contribute their
// configured utilisation, and accelerator inference induces CompanionUtil
// on the companion cluster.
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
					util += e.acceleratorDNNShare(cs)
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
	// Companion load induced by accelerators hosting active DNN jobs.
	// clusterList follows platform order, so the accumulation order is
	// identical to iterating e.plat.Clusters.
	for _, ocs := range e.clusterList {
		if ocs.companion != cs || ocs.c.CompanionUtil == 0 {
			continue
		}
		if e.anyActiveDNN(ocs) {
			util += ocs.c.CompanionUtil
		}
	}
	if util > 1 {
		util = 1
	}
	return util
}

// acceleratorDNNShare returns the fraction of the accelerator each active
// DNN job uses (cached per cluster stamp): active jobs share whatever
// render apps leave.
func (e *Engine) acceleratorDNNShare(cs *clusterState) float64 {
	if cs.shareVer != cs.ver {
		cs.cachedShare = e.computeAcceleratorDNNShare(cs)
		cs.shareVer = cs.ver
	}
	return cs.cachedShare
}

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

func (e *Engine) anyActiveDNN(cs *clusterState) bool {
	if cs.activeVer != cs.ver {
		cs.cachedActive = e.computeAnyActiveDNN(cs)
		cs.activeVer = cs.ver
	}
	return cs.cachedActive
}

func (e *Engine) computeAnyActiveDNN(cs *clusterState) bool {
	for _, a := range e.appList {
		if a.started && !a.stopped && a.placedCS == cs &&
			a.Kind == KindDNN && a.jobActive && e.now >= a.blockedUntil {
			return true
		}
	}
	return false
}

// jobRate returns the MAC/s processing rate of an app's current job,
// cached per stamp of the cluster it is placed on, where every input of
// the rate lives.
func (e *Engine) jobRate(a *appState) float64 {
	if a.rateVer != a.placedCS.ver {
		a.cachedRate = e.computeJobRate(a)
		a.rateVer = a.placedCS.ver
	}
	return a.cachedRate
}

func (e *Engine) computeJobRate(a *appState) float64 {
	if e.now < a.blockedUntil {
		return 0
	}
	cs := a.placedCS
	if !cs.online {
		return 0
	}
	opp := cs.c.OPPs[cs.oppIdx]
	if cs.c.Type.IsAccelerator() {
		return cs.rate(opp, cs.c.Cores) * e.acceleratorDNNShare(cs)
	}
	return cs.rate(opp, a.placed.Cores)
}

// rate is hw.Cluster.EffectiveRate with the core scaling read from the
// cluster's table: n is clamped as CoreScale clamps it and the product is
// formed in the same order, so the result is bit-identical.
func (cs *clusterState) rate(opp hw.OPP, n int) float64 {
	n = max(0, min(n, cs.c.Cores))
	return cs.c.RateMACsPerSecGHz * opp.FreqGHz * cs.coreScale[n]
}

// handle processes one scheduler event (state is already advanced to its
// time).
func (e *Engine) handle(ev hevent) {
	switch ev.kind {
	case hStart:
		a := e.appList[ev.app]
		a.started = true
		// Dirty before emit: a controller reacting to the event must see
		// fresh derived values and the new planning epoch.
		e.touch(a.placedCS)
		e.planEpoch++
		e.emit(Event{TimeS: e.now, Kind: EvAppStart, App: a.Name})
		if a.Kind == KindDNN {
			e.release(a)
		}
	case hStop:
		a := e.appList[ev.app]
		a.stopped = true
		a.jobActive = false
		e.touch(a.placedCS)
		e.planEpoch++
		e.emit(Event{TimeS: e.now, Kind: EvAppStop, App: a.Name})
	case hRelease:
		a := e.appList[ev.app]
		if a.started && !a.stopped {
			e.release(a)
		}
	case hComplete:
		a := e.appList[ev.app]
		if a.jobActive && ev.seq == a.completionSeq {
			// Complete when less than a nanosecond of work remains; the
			// residue is floating-point error from time subtraction, which
			// grows with the simulation clock. If genuinely early (a rate
			// drop moved the estimate), clear the seq so refresh reschedules
			// — the skip-guard must not suppress it.
			if rate := e.jobRate(a); rate > 0 && a.jobRemaining <= rate*1e-9 {
				e.complete(a)
			} else {
				a.completionSeq = 0
			}
		}
	case hUnblock:
		// No state change needed: the clock advance into the blocked-until
		// boundary already invalidated the caches (see advanceTo), so rates
		// recompute in refresh().
	case hTick:
		if e.ctrl != nil {
			e.ctrl.OnTick(e)
			if next := e.now + e.tickS; next <= e.endS {
				e.push(next, hTick, -1)
			}
		}
	case hThermal:
		if ev.seq == e.thermalEvSeq {
			e.thermalEvSeq = 0 // consumed; refresh may schedule a successor
			if !e.alarmed && e.thermal.TempC >= e.plat.Thermal.ThrottleC-0.05 {
				e.alarmed = true
				e.emit(Event{TimeS: e.now, Kind: EvThermalAlarm, TempC: e.thermal.TempC})
			}
		}
	}
}

// release starts a new job (or drops the frame if one is running) and
// schedules the next release.
func (e *Engine) release(a *appState) {
	a.released++
	if e.offline > 0 {
		e.degReleased++
	}
	if !a.placedCS.online {
		// The app is unhosted: its cluster died and no replan has moved it
		// yet. The frame aborts immediately — there is no hardware to run
		// it on. Per-app it counts as aborted (not dropped); in the
		// degraded-window split it joins degDropped so the window's
		// outcome counters cover exactly the frames released inside it.
		a.aborted++
		e.degDropped++
		e.emit(Event{TimeS: e.now, Kind: EvFrameDrop, App: a.Name, Unhosted: true})
		next := e.now + a.PeriodS
		if (a.StopS == 0 || next < a.StopS) && next <= e.endS {
			e.push(next, hRelease, a.idx)
		}
		return
	}
	if a.jobActive {
		a.dropped++
		if e.offline > 0 {
			e.degDropped++
		}
		e.emit(Event{TimeS: e.now, Kind: EvFrameDrop, App: a.Name})
	} else {
		a.jobActive = true
		a.jobReleaseS = e.now
		a.jobRemaining = float64(a.Profile.Level(a.level).MACs)
		// The job becoming active changes utilisations and shares; the rate
		// below must be computed under the new state.
		e.touch(a.placedCS)
		// Charge the per-inference fixed overhead (pre/post-processing) as
		// work at the current rate, matching perf.InferenceLatencyS.
		if rate := e.jobRate(a); rate > 0 {
			a.jobRemaining += a.placedCS.c.FixedOverheadS * rate
		}
	}
	next := e.now + a.PeriodS
	if (a.StopS == 0 || next < a.StopS) && next <= e.endS {
		e.push(next, hRelease, a.idx)
	}
}

func (e *Engine) complete(a *appState) {
	latency := e.now - a.jobReleaseS
	a.jobActive = false
	e.touch(a.placedCS)
	a.completed++
	if e.offline > 0 {
		e.degCompleted++
	}
	a.sumLatency += latency
	if latency > a.maxLatency {
		a.maxLatency = latency
	}
	if latency > a.PeriodS+1e-9 {
		a.missed++
		if e.offline > 0 {
			e.degMissed++
		}
		e.emit(Event{TimeS: e.now, Kind: EvDeadlineMiss, App: a.Name, LatencyS: latency, PeriodS: a.PeriodS})
	} else {
		e.emit(Event{TimeS: e.now, Kind: EvJobComplete, App: a.Name, LatencyS: latency})
	}
}

// emit records an event and forwards it to the controller.
func (e *Engine) emit(ev Event) {
	if e.logEvents {
		e.eventLog = append(e.eventLog, ev)
	}
	if e.ctrl != nil {
		e.ctrl.OnEvent(e, ev)
	}
}

// refresh recomputes all pending completion events and the thermal alarm
// after any state change. An event is only (re)scheduled when its estimate
// actually moved: unconditional rescheduling would invalidate the event
// just popped on every iteration and the heap would never drain.
//
//detlint:hotpath
func (e *Engine) refresh() {
	for _, a := range e.appList {
		if a.Kind != KindDNN || !a.jobActive || a.stopped {
			a.completionSeq = 0
			continue
		}
		if e.now < a.blockedUntil {
			if a.completionSeq == 0 || a.completionEst != a.blockedUntil {
				a.completionEst = a.blockedUntil
				a.completionSeq = e.push(a.blockedUntil, hUnblock, a.idx)
			}
			continue
		}
		rate := e.jobRate(a)
		if rate <= 0 {
			continue // stalled: a future state change will reschedule
		}
		est := e.now + a.jobRemaining/rate
		if a.completionSeq != 0 && math.Abs(est-a.completionEst) < 1e-9 {
			continue // pending event still accurate
		}
		a.completionEst = est
		a.completionSeq = e.push(est, hComplete, a.idx)
	}
	e.rescheduleThermal()
}

// rescheduleThermal predicts the next upward throttle crossing under the
// current (constant) power and schedules an alarm at the exact crossing
// time from the RC model's closed form.
func (e *Engine) rescheduleThermal() {
	if e.alarmed {
		return
	}
	totalW := e.TotalPowerMW() / 1000
	th := e.plat.Thermal
	target := th.SteadyStateC(e.ambient, totalW)
	cur := e.thermal.TempC
	if target <= th.ThrottleC || cur >= th.ThrottleC {
		if cur >= th.ThrottleC && !e.alarmed && e.thermalEvSeq == 0 {
			// Already above: alarm immediately.
			e.thermalEst = e.now
			e.thermalEvSeq = e.push(e.now, hThermal, -1)
		}
		return
	}
	tau := th.RthKPerW * th.CthJPerK
	frac := (target - cur) / (target - th.ThrottleC)
	if frac <= 1 {
		return
	}
	tc := tau * math.Log(frac)
	// Floor the crossing delay: as cur approaches the trip point, tc → 0
	// and floating-point error could otherwise schedule a cascade of
	// zero-advance alarms (a Zeno loop). 1 ms resolution is far below any
	// thermal time constant of interest.
	if tc < 1e-3 {
		tc = 1e-3
	}
	est := e.now + tc
	if e.thermalEvSeq != 0 && math.Abs(est-e.thermalEst) < 1e-3 {
		return // pending alarm still accurate
	}
	e.thermalEst = est
	e.thermalEvSeq = e.push(est, hThermal, -1)
}
