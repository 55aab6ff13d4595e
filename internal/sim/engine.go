package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// thermalStepS is the length h of a thermal step: the die temperature is
// advanced once per step, on a grid at k·h from Reset (see thermalStep).
// It is a binary fraction, so every boundary time is exact, and it is
// small against every catalog platform's τ (h ≤ τ/16).
const thermalStepS = 0.25

// hKind enumerates internal scheduler events (a superset of the observable
// Event kinds): first the kinds held in the lifecycle list and the release
// and tick slots, then the timer kinds.
type hKind uint8

const (
	hStart hKind = iota
	hStop
	hRelease
	hTick
	hComplete // the first timer kind
	hUnblock
)

// hevent is one pending event. app is the index into Engine.appList (-1
// for app-less events), so the hot loop never looks an app up by name.
//
// No event queue holds them. Every pending event sits in a fixed place:
// each app's start and stop in Engine.lifecycle, known when prime runs and
// walked in order; its next frame release in its release slot
// (appState.relSeq), since an app has at most one pending at a time; the
// controller tick in the engine's tick slot; and the events re-derived as
// the state moves — each app's completion or unblock — in its timer slot
// (appState.completionSeq). Arming an event writes its slot, so a
// superseded timer never fires, and next scans the slots for the
// earliest. The next thermal step boundary is not among them: it sits at
// a fixed time (Engine.stepT), and step handles it ahead of every event
// due at or after it.
type hevent struct {
	t    float64
	seq  int64
	kind hKind
	app  int32
}

// precedes is the engine's event order: it reports whether an event due at
// t, armed with seq, comes before ev; timer says whether the event is a
// timer. Earlier time comes first. At one instant every timer comes before
// every other event, and within each of the two the smaller seq — the
// event armed first — comes first. So a job whose latency equals its
// period exactly completes on time before its next frame is released, and
// that frame starts a new job instead of being dropped.
//
// Event times are never NaN: Reset rejects non-finite app times, and every
// other time is a finite one plus a span that is never negative, if
// perhaps infinite. So a time neither before nor after ev's equals it.
func precedes(t float64, seq int64, timer bool, ev hevent) bool {
	switch {
	case t < ev.t:
		return true
	case t > ev.t:
		return false
	case timer != (ev.kind >= hComplete):
		return timer
	}
	return seq < ev.seq
}

// next returns the earliest pending event without consuming it: the
// lifecycle list's head, the tick, an armed release slot or an armed
// completion or unblock timer, whichever comes first (see precedes). ok is
// false when nothing is pending.
//
//detlint:hotpath
func (e *Engine) next() (ev hevent, ok bool) {
	ev = hevent{t: math.Inf(1)}
	if e.cursor < len(e.lifecycle) {
		ev = e.lifecycle[e.cursor]
	}
	if e.tickSeq != 0 && precedes(e.tickT, e.tickSeq, false, ev) {
		ev = hevent{t: e.tickT, seq: e.tickSeq, kind: hTick, app: -1}
	}
	for _, a := range e.appList {
		if a.Kind != KindDNN {
			continue // only DNN apps have frames and jobs
		}
		if a.relSeq != 0 && precedes(a.relT, a.relSeq, false, ev) {
			ev = hevent{t: a.relT, seq: a.relSeq, kind: hRelease, app: a.idx}
		}
		if a.completionSeq != 0 && precedes(a.completionEst, a.completionSeq, true, ev) {
			ev = hevent{t: a.completionEst, seq: a.completionSeq, kind: a.completionKind, app: a.idx}
		}
	}
	return ev, ev.seq != 0
}

// Run executes the simulation until endS seconds. Calling Run again with a
// later end continues from the accumulated state (derived values, stats, the
// events armed past the previous end and all): Run(a) then Run(b) covers
// exactly the events a single Run(b) would. The rtm tests use this to
// extend a managed run; use Reset to rewind to the pristine state a fresh
// New would build. The end must be finite: a thermal step boundary falls
// due every 250 ms, so a run to +Inf would never return.
//
//detlint:hotpath
func (e *Engine) Run(endS float64) error {
	if !(endS > e.now) || math.IsInf(endS, 1) {
		//detlint:allow hotalloc one-time argument validation; never reached by the steady-state loop
		return fmt.Errorf("sim: end time %f must be finite and after the clock %f", endS, e.now)
	}
	if !e.primed {
		e.prime()
	}
	for e.step(endS) {
	}
	e.advanceTo(endS)
	return nil
}

// prime arms the events every run starts from and opens the first energy
// segments. Each app's start and stop are appended to the lifecycle list in
// app order, so their seqs rise along it, and sorted by time once,
// stably, so the list runs in (t, seq) order; the first controller tick
// goes into the tick slot. It runs once per Reset; a continued Run finds
// them armed already.
func (e *Engine) prime() {
	e.primed = true
	for _, a := range e.appList {
		e.seq++
		e.lifecycle = append(e.lifecycle, hevent{t: a.StartS, seq: e.seq, kind: hStart, app: a.idx})
		if a.StopS > 0 {
			e.seq++
			e.lifecycle = append(e.lifecycle, hevent{t: a.StopS, seq: e.seq, kind: hStop, app: a.idx})
		}
	}
	slices.SortStableFunc(e.lifecycle, func(x, y hevent) int { return cmp.Compare(x.t, y.t) })
	if e.tickS > 0 && e.ctrl != nil {
		e.armTick(e.tickS)
	}
	e.syncThermal()
}

// armTick arms the tick slot at t.
func (e *Engine) armTick(t float64) {
	e.seq++
	e.tickT, e.tickSeq = t, e.seq
}

// step handles the earliest pending event (see next) if it falls at or
// before endS and reports whether there was one; an event past endS stays
// pending for a later Run. step consumes a start or stop by advancing the
// lifecycle cursor and a release or tick by clearing its slot, before
// handle may arm the next one; a timer stays in its slot, and handle
// disarms it.
//
// A thermal step boundary due at or before both that event and endS comes
// first, ahead of every event at its instant, so a controller tick there
// reads the new temperature. It changes nothing but the thermal state, so
// the event found before it stays the earliest, and the same step handles
// it too when it falls before the next boundary: a boundary that shares
// its instant with a tick, as in every fleet run, costs no step of its
// own. A boundary that raises an alarm ends the step instead, since the
// controller may have acted on it.
//
//detlint:hotpath
func (e *Engine) step(endS float64) bool {
	ev, ok := e.next()
	ok = ok && ev.t <= endS
	if b := e.stepT; b <= endS && (!ok || b <= ev.t) {
		e.advanceTo(b)
		if e.thermalStep() || !ok || ev.t >= e.stepT {
			return true
		}
	}
	if !ok {
		return false
	}
	switch ev.kind {
	case hStart, hStop:
		e.cursor++
	case hRelease:
		e.appList[ev.app].relSeq = 0
	case hTick:
		e.tickSeq = 0
	}
	e.advanceTo(ev.t)
	e.handle(ev)
	e.refresh()
	return true
}

// advanceTo moves the clock to t; it never moves it back. Nothing is
// integrated here: every integral is held per constant-rate segment and
// closed only where its rate changes — cluster energy in syncThermal,
// each job's progress at its anchor (see refresh) and UnhostedS when the
// count of unhosted DNNs moves. Reads evaluate the open segments up to
// the clock. Temperature moves only at step boundaries
// (see thermalStep).
//
//detlint:hotpath
func (e *Engine) advanceTo(t float64) {
	e.now = max(e.now, t)
}

// touch re-derives a cluster's values after a mutation they can observe,
// then brings its companion CPU up to date and asks the next syncThermal
// to look at the power of each cluster it re-derived. Every mutation that
// derive reads — app lifecycle, job start and finish, OPP switches,
// availability, migrations and the end of their downtime — touches the
// clusters it affects, after it has changed their state.
//
// The companion's utilisation reads this cluster's any-active flag, so it
// is re-tailed when the flag flips. Its own part reads only its residents,
// which the clock can change only while one of them is inside a downtime:
// then it is derived in full, as any touch of it would.
//
//detlint:hotpath
func (e *Engine) touch(cs *clusterState) {
	was := cs.active
	e.derive(cs)
	e.powerDirty |= cs.bit
	if co := cs.companion; co != nil {
		switch {
		case co.blocked:
			e.derive(co)
		case cs.active != was:
			co.loadTail()
		default:
			return
		}
		e.powerDirty |= co.bit
	}
}

// derive recomputes a cluster's derived values from its state at the
// clock: its utilisation (resident DNN jobs run their cores flat out,
// render and background apps contribute their configured utilisation,
// and accelerators hosting an active DNN job induce CompanionUtil on
// their companion), its busy power, the accelerator share each active
// DNN job gets (whatever render apps leave, split evenly), whether any
// DNN job is active, and the MAC/s rate of each DNN app it hosts. It
// visits the residents in appList order, so every sum rounds as a scan
// of the app list would, and marks them for the next refresh.
//
// Each value is evaluated when its cluster was last touched, not when it
// is read. That matters only for the blocked-until predicate, which reads
// the clock: a downtime counts as ended from the first touch of its
// cluster at or after its end — its own unblock timer's, or another
// event's at that instant — and not before, even once the clock has
// reached it. So when two downtimes end at one instant on one cluster,
// the first unblock resumes both jobs.
//
//detlint:hotpath
func (e *Engine) derive(cs *clusterState) {
	e.dirty |= cs.res
	opp := cs.c.OPPs[cs.oppIdx]
	util, active, blocked := 0.0, 0, false
	for r := cs.res; r != 0; r &= r - 1 {
		a := e.appList[bits.TrailingZeros64(r)]
		switch a.Kind {
		case KindDNN:
			a.rate = 0
			if e.now < a.blockedUntil {
				blocked = true
				continue
			}
			if a.jobActive {
				active++
			}
			if cs.accel {
				continue // the share, and with it the rate, needs every active job
			}
			if a.jobActive {
				util += float64(a.placed.Cores) / float64(cs.c.Cores)
			}
			if cs.online {
				a.rate = cs.rate(opp, a.placed.Cores)
			}
		case KindRender, KindBackground:
			if cs.accel {
				util += a.Util
			} else {
				util += float64(a.placed.Cores) / float64(cs.c.Cores) * a.Util
			}
		}
	}
	cs.active, cs.share, cs.blocked = active > 0, 0, blocked
	if cs.accel && active > 0 {
		// util holds the render load alone so far. Active jobs share what
		// it leaves; a second pass adds each job's share in app order,
		// interleaved with the render loads, and sets the jobs' rates.
		cs.share = max(0, 1-util) / float64(active)
		full := 0.0
		if cs.online {
			full = cs.rate(opp, cs.c.Cores) * cs.share
		}
		util = 0
		for r := cs.res; r != 0; r &= r - 1 {
			a := e.appList[bits.TrailingZeros64(r)]
			switch a.Kind {
			case KindDNN:
				if e.now >= a.blockedUntil {
					a.rate = full
					if a.jobActive {
						util += cs.share
					}
				}
			case KindRender, KindBackground:
				util += a.Util
			}
		}
	}
	cs.own = util
	cs.loadTail()
}

// loadTail finishes a derive from the cluster's own utilisation: it adds
// the CompanionUtil of each loader with an active job, then clamps the
// utilisation and prices it, or zeroes both on an offline cluster.
//
//detlint:hotpath
func (cs *clusterState) loadTail() {
	util := cs.own
	// The loaders are threaded in platform order, so the accumulation
	// order is identical to iterating e.plat.Clusters.
	for ocs := cs.loadHead; ocs != nil; ocs = ocs.loadNext {
		if ocs.active {
			util += ocs.c.CompanionUtil
		}
	}
	if !cs.online {
		// A failed cluster runs nothing and draws nothing — not even
		// static power: the domain is dead, not idle.
		cs.util, cs.pow = 0, 0
		return
	}
	cs.util = min(util, 1)
	cs.pow = cs.busyPowerMW(cs.util)
}

// setOPP moves the cluster to OPP idx.
func (cs *clusterState) setOPP(idx int) {
	cs.oppIdx = idx
	opp := cs.c.OPPs[idx]
	cs.dynMW = cs.c.Power.CeffMWPerV2GHz * opp.VoltageV * opp.VoltageV * opp.FreqGHz
}

// busyPowerMW is hw.Cluster.BusyPowerMW at the current OPP with every core
// active, for a utilisation already in [0,1] (derive clamps it). With all cores active BusyPowerMW's core fraction is exactly 1 and
// the OPP factor is formed in the same order, so the result is
// bit-identical while costing one multiply-add per derived cluster.
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
		a.placedCS.res |= 1 << a.idx
		// Touch before emit: a controller reacting to the event must see
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
		a.placedCS.res &^= 1 << a.idx
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
		// app's cluster is re-derived and refresh re-anchors its job.
		a := e.appList[ev.app]
		a.completionSeq = 0
		e.touch(a.placedCS)
	case hTick:
		if e.ctrl != nil {
			e.ctrl.OnTick(e)
			e.armTick(e.now + e.tickS)
		}
	}
}

// release starts a new job (or drops the frame if one is running, or
// aborts it if the app is unhosted) and arms the app's release slot with
// the next frame, if that falls before the app stops.
func (e *Engine) release(a *appState) {
	a.released++
	if e.offline > 0 {
		e.degReleased++
	}
	switch {
	case !a.placedCS.online:
		// The app is unhosted: its cluster died and no replan has moved it
		// yet. The frame aborts immediately — there is no hardware to run
		// it on. Per-app it counts as aborted (not dropped); in the
		// degraded-window split it joins degDropped so the window's
		// outcome counters cover exactly the frames released inside it.
		a.aborted++
		e.degDropped++
		e.emit(Event{TimeS: e.now, Kind: EvFrameDrop, App: a.Name, Unhosted: true})
	case a.jobActive:
		a.dropped++
		if e.offline > 0 {
			e.degDropped++
		}
		e.emit(Event{TimeS: e.now, Kind: EvFrameDrop, App: a.Name})
	default:
		a.jobActive = true
		a.jobReleaseS = e.now
		a.jobRemaining = a.jobMACs
		// The job becoming active changes utilisations and shares; the rate
		// below must be derived under the new state.
		e.touch(a.placedCS)
		// Charge the per-inference fixed overhead (pre/post-processing) as
		// work at the current rate, matching perf.InferenceLatencyS.
		rate := a.rate
		if rate > 0 {
			a.jobRemaining += a.placedCS.c.FixedOverheadS * rate
		}
		a.anchorS, a.anchorRate = e.now, rate
	}
	if next := e.now + a.PeriodS; a.StopS == 0 || next < a.StopS {
		e.seq++
		a.relT, a.relSeq = next, e.seq
	}
}

func (e *Engine) complete(a *appState) {
	latency := e.now - a.jobReleaseS
	a.jobActive = false
	e.touch(a.placedCS)
	a.completed++
	a.sumLatency += latency
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

// refresh brings the pending timer of every app derive marked since the
// last refresh, the unhosted count and the energy segments up to date
// after any state change. An unmarked app would be skipped by a scan of
// every app: its cluster was not derived, so its rate, job, timer and
// downtime have not moved since the refresh that last visited it (the
// clock alone ends a downtime only through the app's unblock timer, which
// touches its cluster). Marked apps are visited in appList order, so
// timers are armed in the same order as by that scan. A job whose rate
// changed is re-anchored: its progress so far at the old rate is closed
// into jobRemaining, and its completion time is derived once from the new
// anchor. The timer is re-armed only then (or after something disarmed
// it), so the seq — and with it the tie order — stays put while the rate
// does. An app inside migration downtime holds an unblock timer in the
// same slot instead, whether or not a job is running.
//
//detlint:hotpath
func (e *Engine) refresh() {
	for d := e.dirty; d != 0; d &= d - 1 {
		a := e.appList[bits.TrailingZeros64(d)]
		if a.stopped {
			continue
		}
		if a.jobActive {
			if rate := a.rate; rate != a.anchorRate {
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
	e.dirty = 0
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

// syncThermal closes the integral the thermal steps read — each
// cluster's energy — where its rate changed. It looks only at the
// clusters re-derived since the last look, and a segment closes only
// when its power actually changed.
//
//detlint:hotpath
func (e *Engine) syncThermal() {
	for d := e.powerDirty; d != 0; d &= d - 1 {
		cs := e.clusterList[bits.TrailingZeros64(d)]
		if cs.pow != cs.segPowMW {
			cs.energy = cs.energyAt(e.now)
			cs.segT0S, cs.segPowMW = e.now, cs.pow
		}
	}
	e.powerDirty = 0
}

// energyAt evaluates the cluster's energy integral (mJ) at t: the closed
// segments plus the open one, whose power is constant.
func (cs *clusterState) energyAt(t float64) float64 {
	return cs.energy + cs.segPowMW*(t-cs.segT0S)
}

// energyAt returns the platform's energy (mJ) at t: every cluster's
// energy integral, summed in platform order.
func (e *Engine) energyAt(t float64) float64 {
	total := 0.0
	for _, cs := range e.clusterList {
		total += cs.energyAt(t)
	}
	return total
}

// stepPowerW is a thermal step's average power in watts: the platform's
// energy gained over the step, from e0 to e1 mJ, over its length.
func stepPowerW(e0, e1 float64) float64 { return (e1 - e0) / (1000 * thermalStepS) }

// thermalStep closes the thermal step that ends at the clock, which is
// its boundary, and reports whether it raised a throttle alarm. The step
// runs at its exact average power, from the cluster energy integrals, so
// how events slice it changes nothing; its end temperature, time above
// throttle and crossing follow in closed form (hw.ThermalParams.Step)
// with the decay factor Reset computed. The ambient is the one in force
// now, so a SetAmbient takes effect at the boundary after it, for the
// whole step it fell in. The alarm fires when the step crossed the
// throttle point upward and the alarm is not latched; it stays latched
// until a step ends below the clear point, 2 K under throttle.
//
//detlint:hotpath
func (e *Engine) thermalStep() (alarm bool) {
	e.steps++
	th := &e.plat.Thermal
	energy := e.energyAt(e.now)
	st := th.Step(e.ambient, stepPowerW(e.stepE0, energy), e.tempC, e.stepDecay, thermalStepS)
	e.stepE0, e.tempC, e.stepT = energy, st.EndC, e.stepT+thermalStepS
	e.overThrotS += st.OverS
	e.maxTempC = max(e.maxTempC, st.EndC)
	if e.alarmed && st.EndC < th.ThrottleC-2 {
		e.alarmed = false
	}
	if !st.Alarm || e.alarmed {
		return false
	}
	e.alarmed = true
	e.emit(Event{TimeS: e.now, Kind: EvThermalAlarm, TempC: st.EndC})
	return true
}
