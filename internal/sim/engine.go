package sim

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// hKind enumerates internal scheduler events (a superset of the observable
// Event kinds): first the kinds the heap holds, then the timer kinds.
type hKind uint8

const (
	hStart hKind = iota
	hStop
	hRelease
	hTick
	hComplete // the first timer kind
	hUnblock
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
// ordered by (t, seq). It holds only entries that are always handled:
// starts, stops, releases and ticks. The events that get re-derived as the
// state moves — each app's completion or unblock and the throttle alarm —
// are timers held in place instead (appState.completionSeq,
// Engine.thermalEvSeq), so re-arming one overwrites it and a superseded
// one never fires. push and pop sift inline over the backing
// array and keep it when the heap drains, so the steady-state simulation
// loop does no heap allocations — unlike container/heap, whose interface
// boxes every pushed element through `any`.
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

// next returns the earliest pending event without removing it: the heap
// top, an armed completion or unblock timer or the armed throttle alarm,
// whichever comes first (see precedes). ok is false when nothing is
// pending.
//
//detlint:hotpath
func (e *Engine) next() (ev hevent, ok bool) {
	if len(e.events) > 0 {
		ev, ok = e.events[0], true
	}
	for _, a := range e.appList {
		if a.completionSeq != 0 && (!ok || precedes(a.completionEst, a.completionSeq, ev)) {
			ev, ok = hevent{t: a.completionEst, seq: a.completionSeq, kind: a.completionKind, app: a.idx}, true
		}
	}
	if e.thermalEvSeq != 0 && (!ok || precedes(e.thermalEst, e.thermalEvSeq, ev)) {
		ev, ok = hevent{t: e.thermalEst, seq: e.thermalEvSeq, kind: hThermal, app: -1}, true
	}
	return ev, ok
}

// precedes reports whether a timer due at t, armed with sequence seq, comes
// before ev. Earlier time comes first. At one instant every timer comes
// before every heap entry, and timers come in the order they were armed
// (heap entries keep eventHeap's (t, seq) order among themselves). So a
// job whose latency equals its period exactly completes on time before
// its next frame is released, and that frame starts a new job instead of
// being dropped.
func precedes(t float64, seq int64, ev hevent) bool {
	return t < ev.t || t == ev.t && (ev.kind < hComplete || seq < ev.seq)
}

// Run executes the simulation until endS seconds. Calling Run again with a
// later end continues from the accumulated state (warm caches, stats, the
// events queued past the previous end and all): Run(a) then Run(b) covers
// exactly the events a single Run(b) would. The rtm tests use this to
// extend a managed run; use Reset to rewind to the pristine state a fresh
// New would build.
//
//detlint:hotpath
func (e *Engine) Run(endS float64) error {
	if !(endS > e.now) {
		//detlint:allow hotalloc one-time argument validation; never reached by the steady-state loop
		return fmt.Errorf("sim: end time %f must be after the clock %f", endS, e.now)
	}
	if !e.primed {
		e.prime()
	}
	for e.step(endS) {
	}
	e.advanceTo(endS)
	return nil
}

// prime queues the events every run starts from — each app's start and
// stop and the first controller tick — and opens the first thermal window.
// It runs once per Reset; a continued Run finds them queued already.
func (e *Engine) prime() {
	e.primed = true
	for _, a := range e.appList {
		e.push(a.StartS, hStart, a.idx)
		if a.StopS > 0 {
			e.push(a.StopS, hStop, a.idx)
		}
	}
	if e.tickS > 0 && e.ctrl != nil {
		e.push(e.tickS, hTick, -1)
	}
	e.syncThermal()
}

// step handles the earliest pending event (see next) if it falls at or
// before endS and reports whether there was one; an event past endS stays
// pending for a later Run. A heap entry is popped; a timer stays in its
// slot, and handle disarms it.
//
//detlint:hotpath
func (e *Engine) step(endS float64) bool {
	ev, ok := e.next()
	if !ok || ev.t > endS {
		return false
	}
	if ev.kind < hComplete {
		e.events.pop()
	}
	e.advanceTo(ev.t)
	e.handle(ev)
	e.refresh()
	return true
}

// advanceTo moves the clock to t; it never moves it back. Nothing is
// integrated here: every integral is held per constant-rate segment and
// closed only where its rate changes — heat per thermal window (see
// closeWindow), cluster energy and busy time in syncThermal, each job's
// progress at its anchor (see refresh) and UnhostedS when the count of
// unhosted DNNs moves. Reads evaluate the open segments up to the clock.
//
//detlint:hotpath
func (e *Engine) advanceTo(t float64) {
	e.now = max(e.now, t)
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

// clusterUtilOf returns a cluster's aggregate dynamic-power utilisation
// fraction in [0,1] through the derived-value cache, recomputing only when
// the cluster's stamp moved. The matching busy
// power is computed and cached alongside — every hot caller that needs one
// needs the other within the same piecewise-constant segment. The check is
// small enough to inline into the per-cluster loops; the refill is not.
func (e *Engine) clusterUtilOf(cs *clusterState) float64 {
	if cs.utilVer != cs.ver {
		e.refillClusterUtil(cs)
	}
	return cs.cachedUtil
}

func (e *Engine) refillClusterUtil(cs *clusterState) {
	if cs.online {
		cs.cachedUtil = e.computeClusterUtil(cs)
		cs.cachedPow = cs.busyPowerMW(cs.cachedUtil)
	} else {
		// A failed cluster runs nothing and draws nothing — not even
		// static power: the domain is dead, not idle.
		cs.cachedUtil, cs.cachedPow = 0, 0
	}
	cs.utilVer = cs.ver
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

// setOPP moves the cluster to OPP idx.
func (cs *clusterState) setOPP(idx int) {
	cs.oppIdx = idx
	opp := cs.c.OPPs[idx]
	cs.dynMW = cs.c.Power.CeffMWPerV2GHz * opp.VoltageV * opp.VoltageV * opp.FreqGHz
}

// busyPowerMW is hw.Cluster.BusyPowerMW at the current OPP with every core
// active, for a utilisation already in [0,1] (computeClusterUtil clamps
// it). With all cores active BusyPowerMW's core fraction is exactly 1 and
// the OPP factor is formed in the same order, so the result is
// bit-identical while the power check behind each thermal window costs one
// multiply-add per re-stamped cluster.
func (cs *clusterState) busyPowerMW(util float64) float64 {
	return cs.dynMW*util + cs.c.Power.StaticMW
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
		a.jobActive, a.completionSeq = false, 0
		e.touch(a.placedCS)
		e.planEpoch++
		e.emit(Event{TimeS: e.now, Kind: EvAppStop, App: a.Name})
	case hRelease:
		a := e.appList[ev.app]
		if a.started && !a.stopped {
			e.release(a)
		}
	case hComplete:
		// The timer is armed at the job's anchored completion time and
		// re-armed whenever its rate changes, so the work is done.
		a := e.appList[ev.app]
		a.completionSeq = 0
		e.complete(a)
	case hUnblock:
		// The downtime ended: the blocked-until predicates flip, so the
		// app's cluster is re-stamped and refresh re-anchors its job.
		a := e.appList[ev.app]
		a.completionSeq = 0
		e.touch(a.placedCS)
	case hTick:
		if e.ctrl != nil {
			e.ctrl.OnTick(e)
			e.push(e.now+e.tickS, hTick, -1)
		}
	case hThermal:
		// The alarm is armed only at the open window's upward throttle
		// crossing (see rescheduleThermal), so the die is there now. It
		// stays latched until a window ends below the clear point.
		e.thermalEvSeq = 0
		e.alarmed = true
		e.emit(Event{TimeS: e.now, Kind: EvThermalAlarm, TempC: e.temperature()})
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
		if a.StopS == 0 || next < a.StopS {
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
		a.jobRemaining = a.jobMACs
		// The job becoming active changes utilisations and shares; the rate
		// below must be computed under the new state.
		e.touch(a.placedCS)
		// Charge the per-inference fixed overhead (pre/post-processing) as
		// work at the current rate, matching perf.InferenceLatencyS.
		rate := e.jobRate(a)
		if rate > 0 {
			a.jobRemaining += a.placedCS.c.FixedOverheadS * rate
		}
		a.anchorS, a.anchorRate = e.now, rate
	}
	next := e.now + a.PeriodS
	if a.StopS == 0 || next < a.StopS {
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
	if e.logLatencies {
		e.latLog = append(e.latLog, latency)
	}
	if latency > a.PeriodS+1e-9 {
		a.missed++
		if e.offline > 0 {
			e.degMissed++
		}
		e.emit(Event{TimeS: e.now, Kind: EvDeadlineMiss, App: a.Name, LatencyS: latency, PeriodS: a.PeriodS})
	} else if e.logEvents {
		// An on-time completion is logged but never delivered: no
		// controller acts on a frame that met its deadline, and these are
		// most of a run's events.
		e.eventLog = append(e.eventLog, Event{TimeS: e.now, Kind: EvJobComplete, App: a.Name, LatencyS: latency})
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

// refresh brings every app's pending timer, the unhosted count and the
// thermal window up to date after any state change. A job whose rate
// changed is re-anchored: its progress so far at the old rate is closed
// into jobRemaining, and its completion time is derived once from the new
// anchor. The timer is re-armed only then (or after something disarmed
// it), so the seq — and with it the tie order — stays put while the rate
// does. An app inside migration downtime holds an unblock timer in the
// same slot instead, whether or not a job is running.
//
//detlint:hotpath
func (e *Engine) refresh() {
	for _, a := range e.appList {
		if a.stopped {
			continue
		}
		if a.jobActive {
			if rate := e.jobRate(a); rate != a.anchorRate {
				a.jobRemaining -= a.anchorRate * (e.now - a.anchorS)
				a.anchorS, a.anchorRate, a.completionSeq = e.now, rate, 0
			}
		}
		if a.completionSeq != 0 {
			continue
		}
		switch {
		case e.now < a.blockedUntil:
			a.completionEst, a.completionKind = a.blockedUntil, hUnblock
		case a.jobActive && a.anchorRate > 0:
			// A rate change at the very instant the job's work ran out can
			// leave a rounding residue of either sign; it completes now.
			a.completionEst, a.completionKind = max(e.now, a.anchorS+a.jobRemaining/a.anchorRate), hComplete
		default:
			continue // idle or stalled: a future state change re-anchors
		}
		e.seq++
		a.completionSeq = e.seq
	}
	if n := e.UnhostedApps(); n != e.unhostedN {
		e.unhostedS, e.unhostedN, e.unhostedT0 = e.unhostedAt(), n, e.now
	}
	e.syncThermal()
}

// unhostedAt evaluates the UnhostedS integral at the clock: the closed
// segments plus the open one, whose count of unhosted DNNs is constant.
func (e *Engine) unhostedAt() float64 {
	return e.unhostedS + float64(e.unhostedN)*(e.now-e.unhostedT0)
}

// syncThermal closes the integrals that follow cluster power — each
// cluster's energy and busy time, and the thermal window — where their
// rate changed, and re-derives the pending throttle alarm when something
// it depends on moved. Power is re-summed only when some cluster stamp
// moved since the last look; a segment closes only when its rate actually
// changed.
//
//detlint:hotpath
func (e *Engine) syncThermal() {
	if e.winVer != e.stateVer {
		e.winVer = e.stateVer
		total := 0.0
		for _, cs := range e.clusterList {
			busy := e.clusterUtilOf(cs) > 0
			if cs.cachedPow != cs.segPowMW || busy != cs.segBusy {
				cs.energy, cs.busyS = cs.integralsAt(e.now)
				cs.segT0S, cs.segPowMW, cs.segBusy = e.now, cs.cachedPow, busy
			}
			total += cs.cachedPow
		}
		if w := total / 1000; w != e.winPowerW {
			e.closeWindow()
			e.winPowerW = w
			e.thermalDirty = true
		}
	}
	if e.thermalDirty {
		e.thermalDirty = false
		e.rescheduleThermal()
	}
}

// integralsAt evaluates the cluster's energy (mJ) and busy-time integrals
// at t: the closed segments plus the open one, whose power and busy
// predicate are constant.
func (cs *clusterState) integralsAt(t float64) (energyMJ, busyS float64) {
	dt := t - cs.segT0S
	energyMJ, busyS = cs.energy+cs.segPowMW*dt, cs.busyS
	if cs.segBusy {
		busyS += dt
	}
	return energyMJ, busyS
}

// windowEnd evaluates the open thermal window up to the clock: the die
// temperature now, and how long since the window opened it spent above the
// throttle and critical trip points. Temperature is monotone inside a
// window, so each trip point is crossed at most once and the time above it
// follows from the closed-form crossing time. It changes nothing;
// closeWindow commits the result.
//
//detlint:hotpath
func (e *Engine) windowEnd() (tempC, overThrotS, overCritS float64) {
	th := &e.plat.Thermal
	from, to, dt := e.winT0C, e.temperature(), e.now-e.winT0S
	return to, e.timeAbove(th.ThrottleC, from, to, dt), e.timeAbove(th.CriticalC, from, to, dt)
}

// closeWindow ends the open thermal window at the clock and opens the next
// one where it ended. It runs where the window's inputs change — total
// power, ambient — and where a throttle alarm is handled; reads evaluate
// the open window instead (see temperature), so results do not depend on
// who looks. The window's end carries its peak, and the alarm latch is
// checked there: a monotone window cannot dip below the clear point and
// come back.
//
//detlint:hotpath
func (e *Engine) closeWindow() {
	to, overThrot, overCrit := e.windowEnd()
	e.overThrotS += overThrot
	e.overCritS += overCrit
	if to > e.maxTempC {
		e.maxTempC = to
	}
	e.winT0C, e.winT0S = to, e.now
	if e.alarmed && to < e.plat.Thermal.ThrottleC-2 {
		e.alarmed = false
		e.thermalDirty = true
	}
}

// timeAbove returns how long the current window, running from → to over dt
// seconds, spends above limitC.
//
//detlint:hotpath
func (e *Engine) timeAbove(limitC, from, to, dt float64) float64 {
	if (from > limitC) == (to > limitC) {
		if from > limitC {
			return dt
		}
		return 0
	}
	cross, ok := e.plat.Thermal.TimeToC(e.ambient, e.winPowerW, from, limitC)
	switch {
	case !ok && from == limitC:
		cross = 0 // heating away from the limit itself
	case !ok || cross > dt:
		cross = dt // rounding put the crossing at the window's end
	}
	if to > limitC {
		return dt - cross
	}
	return cross
}

// temperature returns the die temperature at the clock, evaluating the
// open window without closing it.
//
//detlint:hotpath
func (e *Engine) temperature() float64 {
	if e.now <= e.winT0S {
		return e.winT0C
	}
	return e.plat.Thermal.TempAfterC(e.ambient, e.winPowerW, e.winT0C, e.now-e.winT0S)
}

// rescheduleThermal arms the alarm timer at the open window's upward
// throttle crossing, derived in closed form from the window's origin, so
// re-deriving it mid-window gives the same time. A window that starts at
// or above the trip point, or a crossing that rounding put before the
// clock, alarms now; a window that never crosses disarms the timer. It
// runs only when the window's power or the ambient changed or the alarm
// state moved.
func (e *Engine) rescheduleThermal() {
	if e.alarmed {
		return
	}
	th := &e.plat.Thermal
	est := e.winT0S
	if e.winT0C < th.ThrottleC {
		tc, ok := th.TimeToC(e.ambient, e.winPowerW, e.winT0C, th.ThrottleC)
		if !ok {
			e.thermalEvSeq = 0
			return
		}
		est += tc
	}
	e.seq++
	e.thermalEst, e.thermalEvSeq = max(e.now, est), e.seq
}
