package sim

import (
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// stressScript is the stress run's script, in time order: thermal load, a
// cluster fault, migrations with downtime and DVFS changes.
var stressScript = []struct {
	atS float64
	act func(e *Engine) error
}{
	{1, func(e *Engine) error { return e.SetAmbient(90) }},
	{2, func(e *Engine) error { return e.SetOPP("gpu", 0) }},
	{2.5, func(e *Engine) error { return e.SetOPP("cpu-big", 1) }},
	{3, func(e *Engine) error { return e.SetClusterOnline("cpu-big", false) }},
	{4, func(e *Engine) error { return e.Migrate("dnn2", Placement{Cluster: "cpu-lit", Cores: 1}) }},
	{6, func(e *Engine) error { return e.SetClusterOnline("cpu-big", true) }},
	{6.5, func(e *Engine) error { return e.Migrate("dnn2", Placement{Cluster: "cpu-big", Cores: 4}) }},
	{9, func(e *Engine) error { return e.SetAmbient(25) }},
	{12, func(e *Engine) error { return e.SetAmbient(90) }},
}

// stressCtrl drives a flagship run through stressScript from the tick
// hook, applying each step at the first tick at or after its time, and
// reads the temperature on every tick and event.
type stressCtrl struct {
	next  int // the first step of stressScript not applied yet
	reads int
}

func (c *stressCtrl) OnTick(e *Engine) {
	e.Temperature()
	c.reads++
	for ; c.next < len(stressScript) && e.Now() >= stressScript[c.next].atS; c.next++ {
		if err := stressScript[c.next].act(e); err != nil {
			panic(err)
		}
	}
}

func (c *stressCtrl) OnEvent(e *Engine, ev Event) {
	e.Temperature()
	c.reads++
}

// wakingStress is stressCtrl as a Waker: only the ticks at or after its
// next step's time are due, so the engine passes every other tick.
type wakingStress struct{ *stressCtrl }

func (c wakingStress) NextWake(e *Engine) Wake {
	var w Wake
	if c.next < len(stressScript) {
		w.Add(WakeTerm{AfterS: stressScript[c.next].atS})
	}
	return w
}

// sleeper is a no-op controller whose wake makes no tick due, so the
// engine passes every tick.
type sleeper struct{ boundaryCtrl }

func (*sleeper) NextWake(*Engine) Wake { return Wake{} }

// armedEvents collects every event the engine has armed: the lifecycle
// list from the cursor on, the tick, and each app's release slot and
// timer. The thermal step boundary is not an armed event; step handles it
// ahead of them.
func armedEvents(e *Engine) []hevent {
	armed := slices.Clone(e.lifecycle[e.cursor:])
	if e.tickSeq != 0 {
		armed = append(armed, hevent{t: e.tickT, seq: e.tickSeq, kind: hTick, app: -1})
	}
	for _, a := range e.appList {
		if a.relSeq != 0 {
			armed = append(armed, hevent{t: a.relT, seq: a.relSeq, kind: hRelease, app: a.idx})
		}
		if a.completionSeq != 0 {
			armed = append(armed, hevent{t: a.completionEst, seq: a.completionSeq, kind: a.completionKind, app: a.idx})
		}
	}
	return armed
}

// eventClass puts timers (completions, unblocks) in class 0 and starts,
// stops, releases and ticks in class 1.
func eventClass(ev hevent) int {
	switch ev.kind {
	case hComplete, hUnblock:
		return 0
	}
	return 1
}

// refEventOrder is the documented event order, written apart from
// precedes: by time, then timers ahead of starts, stops, releases and
// ticks, then by seq.
func refEventOrder(x, y hevent) int {
	switch {
	case x.t < y.t:
		return -1
	case x.t > y.t:
		return 1
	case eventClass(x) != eventClass(y):
		return eventClass(x) - eventClass(y)
	case x.seq < y.seq:
		return -1
	case x.seq > y.seq:
		return 1
	}
	return 0
}

// stepSnap holds what handling an event moves, taken before a step: the
// lifecycle cursor, the steps handled by kind, and each app's released
// and completed counts.
type stepSnap struct {
	cursor              int
	steps               [hUnblock + 1]uint64
	released, completed []int
}

func snapStep(e *Engine) stepSnap {
	s := stepSnap{cursor: e.cursor, steps: e.stepsBy}
	for _, a := range e.appList {
		s.released = append(s.released, a.released)
		s.completed = append(s.completed, a.completed)
	}
	return s
}

// checkHandled fails t unless the step taken since s handled ev, an event
// armed at s: one step of ev's kind was handled and none of another, the
// clock stands at ev's time, and ev's slot no longer holds it. The cursor
// passed a start or stop; a tick's, release's or timer's slot was emptied
// or re-armed with a later seq; and a release or completion counts one
// more frame released or completed for its app.
func (s stepSnap) checkHandled(t *testing.T, e *Engine, ev hevent) {
	t.Helper()
	want := s.steps
	want[ev.kind]++
	if e.stepsBy != want || e.now != ev.t {
		t.Fatalf("at %gs the step handled %v steps by kind, from %v; want %+v handled", e.now, e.stepsBy, s.steps, ev)
	}
	var held bool
	switch ev.kind {
	case hStart, hStop:
		held = e.cursor != s.cursor+1 || e.lifecycle[s.cursor] != ev
	case hTick:
		held = e.tickSeq == ev.seq
	case hRelease:
		a := e.appList[ev.app]
		held = a.relSeq == ev.seq || a.released != s.released[ev.app]+1
	case hComplete, hUnblock:
		a := e.appList[ev.app]
		held = a.completionSeq == ev.seq || ev.kind == hComplete && a.completed != s.completed[ev.app]+1
	}
	if held {
		t.Fatalf("at %gs the step handled a %v event, but not %+v", e.now, ev.kind, ev)
	}
}

// handledSteps counts the steps e has handled an event in, of every kind.
func handledSteps(e *Engine) uint64 {
	n := uint64(0)
	for _, k := range e.stepsBy {
		n += k
	}
	return n
}

// TestEngineInvariants steps runs one step at a time and checks before
// every step that the engine holds the controller's wake. A reference
// model of step then runs over every armed event sorted by refEventOrder,
// the thermal state and the open energy segments: it closes each thermal
// step boundary due at or before both the first event and the end, passes
// each tick the wake does not make due (the next tick armed TickS later
// with the next seq, and the list sorted again) and goes on, until it
// reaches an event it handles, a boundary that raises an alarm, or no
// event at or before the end. After the step it checks that:
//   - the step handled the model's event, if the model handled one (see
//     checkHandled);
//   - the step returned true exactly when it handled an event or raised
//     an alarm, and so when the model's loop ended on either, and the
//     clock stands at the handled event, the alarming boundary, or the
//     last boundary or passed tick the loop reached;
//   - every boundary the loop closed continues the temperature chain: the
//     step starts where the last one ended and ends, bit for bit, at
//     TempDecayC of its start, its average power (the energy the platform
//     gained over it, over its length) and the decay factor computed once
//     per Reset; the last one left the engine's temperature, energy mark
//     and latch where the model's chain ends, and only the model's
//     alarming boundary logged an alarm, at its time and temperature;
//   - the passed ticks left the tick armed where the model re-armed it,
//     with its seq, unless the step then handled a tick; only handled ticks
//     count as work;
//   - the next boundary lies after the clock, at most one step ahead;
//   - the lifecycle list from the cursor on holds only starts and stops,
//     in (t, seq) order, no armed event is due before the clock and no
//     two share a seq;
//   - no app that has stopped has its release slot armed;
//   - the open energy segments run at the platform's total power;
//
// and at the end that no more time is spent above throttle than has
// elapsed. The stress run drives thermal load, a fault, migrations and DVFS
// changes; the wake run is the stress run under a waking controller, which
// passes every tick before its next step's time; the quiet run is the hot
// run under a controller that wakes on no tick, with every app starting at
// 2 s and stopping at 8 s, so its steps before and after pass ticks and
// close boundaries with no event between; the hot run is the
// BenchApps load at 58 °C under a no-op
// controller ticking every 0.1 s, off the step grid, on its way up to the
// trip point; the churn run is the hot run with the apps starting and
// stopping out of app order, two starts and a stop due at one instant and
// two stops at another. The tie run is
// tieApp alone and uncontrolled, so each job's completion timer is due at
// the instant of the next release: it must reach the timer/non-timer tie
// at least ties times, and is held to nothing thermal.
func TestEngineInvariants(t *testing.T) {
	hot := hw.FlagshipSoC()
	hot.AmbientC = 58
	cool := hw.OdroidXU3()
	churn := BenchApps()
	for i, life := range [][2]float64{{1, 17}, {0.5, 15}, {0, 1}, {1, 0}, {0.25, 15}} {
		churn[i].StartS, churn[i].StopS = life[0], life[1]
	}
	quiet := BenchApps()
	for i := range quiet {
		quiet[i].StartS, quiet[i].StopS = 1, 10
	}
	for _, tc := range []struct {
		name  string
		plat  *hw.Platform
		apps  []App
		ctrl  Controller
		endS  float64
		stops int
		ties  int
	}{
		{"stress", hw.FlagshipSoC(), BenchApps(), &stressCtrl{}, 16, 0, 0},
		{"wake", hw.FlagshipSoC(), BenchApps(), wakingStress{&stressCtrl{}}, 16, 0, 0},
		{"quiet", hot, quiet, &sleeper{}, 14, 5, 0},
		{"hot", hot, BenchApps(), &boundaryCtrl{}, 20, 0, 0},
		{"churn", hot, churn, &boundaryCtrl{}, 20, 4, 0},
		{"tie", cool, []App{tieApp(cool)}, nil, 20, 0, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, Config{Platform: tc.plat, Apps: tc.apps, Controller: tc.ctrl, TickS: 0.1, LogEvents: true})
			slots := make([]int64, len(e.appList))
			waker, _ := tc.ctrl.(Waker)

			e.prime()
			e.readWake()
			th := &e.plat.Thermal
			if e.stepDecay != th.DecayFactor(thermalStepS) {
				t.Fatalf("decay factor %v, want %v", e.stepDecay, th.DecayFactor(thermalStepS))
			}
			lastEnd, lastEnergy := e.tempC, 0.0
			var steps, completionRearms, ties, passes, quietSteps int
			for {
				armed := armedEvents(e)
				slices.SortFunc(armed, refEventOrder)
				wake := Wake{Every: true}
				if waker != nil {
					wake = waker.NextWake(e)
				}
				if e.wake != wake {
					t.Fatalf("at %gs the engine holds the wake %+v, the controller's is %+v", e.now, e.wake, wake)
				}
				for i, a := range e.appList {
					slots[i] = 0
					if a.completionSeq != 0 && a.completionKind == hComplete {
						slots[i] = a.completionSeq
					}
				}
				if e.tempC != lastEnd || e.stepE0 != lastEnergy {
					t.Fatalf("at %gs the open step starts at %.17g°C, %.17gmJ; the last one ended at %.17g°C, %.17gmJ",
						e.now, e.tempC, e.stepE0, lastEnd, lastEnergy)
				}

				// The reference model of one step.
				b, clock, seq, ticks := e.stepT, e.now, e.seq, e.Work().Ticks
				latched, alarm, handled, closed, passed := e.alarmed, false, false, 0, 0
				var ev hevent
				for {
					ok := len(armed) > 0 && armed[0].t <= tc.endS
					ev = hevent{}
					if ok {
						ev = armed[0]
					}
					if b <= tc.endS && (!ok || b <= ev.t) {
						// The open segments hold until the next handled
						// event, so they give the energy at every boundary
						// the loop closes.
						energy := e.energyAt(b)
						end := th.TempDecayC(e.ambient, stepPowerW(lastEnergy, energy), lastEnd, th.DecayFactor(thermalStepS))
						latched = latched && end >= th.ThrottleC-2
						alarm = !latched && lastEnd < th.ThrottleC && th.ThrottleC <= end
						lastEnd, lastEnergy, clock, b = end, energy, b, b+thermalStepS
						latched = latched || alarm
						closed++
						if alarm {
							break
						}
						continue
					}
					if !ok {
						break
					}
					if ev.kind == hTick && !wake.Due(ev.t, e.failed) {
						clock = ev.t
						seq++
						passed++
						armed[0] = hevent{t: ev.t + e.tickS, seq: seq, kind: hTick, app: -1}
						slices.SortFunc(armed, refEventOrder)
						continue
					}
					handled = true
					break
				}
				steps += closed
				passes += passed
				if closed > 1 && passed > 0 {
					quietSteps++
				}
				if handled && ev.kind == hTick {
					ticks++
				}

				logged, before, snap := len(e.eventLog), handledSteps(e), snapStep(e)
				ret := e.step(tc.endS)
				if handled {
					snap.checkHandled(t, e, ev)
				}
				var alarms []Event
				for _, q := range e.eventLog[logged:] {
					if q.Kind == EvThermalAlarm {
						alarms = append(alarms, q)
					}
				}
				// The step's contract, read from what it did: it returns
				// true only after it handled an event or raised an alarm.
				if did := handledSteps(e) == before+1 || len(alarms) == 1; ret != did {
					t.Fatalf("at %gs step returned %v; it handled %d events and raised %d alarms",
						e.now, ret, handledSteps(e)-before, len(alarms))
				}
				if ret != (handled || alarm) {
					t.Fatalf("at %gs step returned %v; the model handled an event: %v, raised an alarm: %v", e.now, ret, handled, alarm)
				}
				if e.stepT != b || e.tempC != lastEnd || e.stepE0 != lastEnergy || e.alarmed != latched {
					t.Fatalf("at %gs after %d boundaries: next boundary %g, %.17g°C at %.17gmJ, latched %v; want %g, %.17g°C at %.17gmJ, latched %v",
						e.now, closed, e.stepT, e.tempC, e.stepE0, e.alarmed, b, lastEnd, lastEnergy, latched)
				}
				switch {
				case alarm && (len(alarms) != 1 || alarms[0].TimeS != clock || alarms[0].TempC != lastEnd):
					t.Fatalf("the boundary at %gs ending at %.17g°C raised the alarms %+v", clock, lastEnd, alarms)
				case !alarm && len(alarms) != 0:
					t.Fatalf("at %gs the step raised the alarms %+v; the model raised none", e.now, alarms)
				case handled && e.now != ev.t:
					t.Fatalf("%v event at %g left the clock at %g", ev.kind, ev.t, e.now)
				case !handled && e.now != clock:
					t.Fatalf("a step ending at %g left the clock at %g", clock, e.now)
				case !(e.stepT-thermalStepS <= e.now && e.now < e.stepT):
					t.Fatalf("at %gs the next boundary is at %g", e.now, e.stepT)
				case e.Work().Ticks != ticks:
					t.Fatalf("at %gs %d ticks handled, want %d", e.now, e.Work().Ticks, ticks)
				}
				if passed > 0 && !(handled && ev.kind == hTick) {
					if i := slices.IndexFunc(armed, func(q hevent) bool { return q.kind == hTick }); e.tickT != armed[i].t || e.tickSeq != armed[i].seq {
						t.Fatalf("at %gs the passed tick re-armed at %g (seq %d), want %+v", e.now, e.tickT, e.tickSeq, armed[i])
					}
				}
				if !ret {
					break
				}
				if handled && len(armed) > 1 && armed[1].t == ev.t && eventClass(armed[1]) != eventClass(ev) {
					ties++
				}
				if handled && ev.kind == hComplete {
					slots[ev.app] = 0
				}
				rest := e.lifecycle[e.cursor:]
				for i, q := range rest {
					if q.kind != hStart && q.kind != hStop {
						t.Fatalf("at %gs the lifecycle list holds a %v entry due at %g", e.now, q.kind, q.t)
					}
					if i > 0 && (q.t < rest[i-1].t || q.t == rest[i-1].t && q.seq < rest[i-1].seq) {
						t.Fatalf("at %gs the lifecycle list holds %+v after %+v", e.now, q, rest[i-1])
					}
				}
				seqs := map[int64]bool{}
				for _, q := range armedEvents(e) {
					if q.t < e.now || seqs[q.seq] {
						t.Fatalf("at %gs %+v is armed (due before the clock, or its seq repeats)", e.now, q)
					}
					seqs[q.seq] = true
				}
				for _, a := range e.appList {
					if a.stopped && a.relSeq != 0 {
						t.Fatalf("at %gs %s has stopped with a release armed at %g", e.now, a.Name, a.relT)
					}
				}
				for i, a := range e.appList {
					if slots[i] != 0 && a.completionSeq != 0 && a.completionKind == hComplete && a.completionSeq != slots[i] {
						completionRearms++
					}
				}
				segments := 0.0
				for _, cs := range e.clusterList {
					segments += cs.segPowMW
				}
				if total := totalPowerMW(e); segments != total {
					t.Fatalf("at %gs the energy segments run at %gmW, the platform draws %gmW", e.now, segments, total)
				}
			}
			e.advanceTo(tc.endS)

			rep := e.Report()
			if rep.OverThrottleS > rep.DurationS {
				t.Errorf("%gs above throttle in a %gs run", rep.OverThrottleS, rep.DurationS)
			}
			// The run must reach what the invariants are about.
			var alarms, stops int
			for _, ev := range rep.Events {
				switch ev.Kind {
				case EvThermalAlarm:
					alarms++
				case EvAppStop:
					stops++
				}
			}
			if tc.ties > 0 {
				if ties < tc.ties {
					t.Fatalf("%d timer/non-timer ties, want at least %d", ties, tc.ties)
				}
			} else if steps == 0 || alarms == 0 || stops != tc.stops {
				t.Fatalf("run too tame: %d thermal steps, %d alarms, %d stops (want %d)", steps, alarms, stops, tc.stops)
			}
			if (waker != nil) != (passes > 0) {
				t.Fatalf("%d ticks passed under waker %v", passes, waker)
			}
			if _, ok := tc.ctrl.(*sleeper); ok && quietSteps == 0 {
				t.Fatal("no step passed a tick and closed two boundaries")
			}
			ctrl, ok := tc.ctrl.(*stressCtrl)
			if w, isWake := tc.ctrl.(wakingStress); isWake {
				ctrl, ok = w.stressCtrl, true
			}
			if ok && (completionRearms == 0 || alarms < 2 || rep.ClusterFails == 0 ||
				rep.Migrations < 2 || rep.MaxTempC <= th.CriticalC || ctrl.reads == 0 || ctrl.next != len(stressScript)) {
				t.Fatalf("stress run too tame: %d completion re-arms, %d alarms, %d faults, %d migrations, peak %g°C, %d of %d steps",
					completionRearms, alarms, rep.ClusterFails, rep.Migrations, rep.MaxTempC, ctrl.next, len(stressScript))
			}
		})
	}
}

// totalPowerMW sums the instantaneous power of every cluster afresh, from
// the reference utilisation scan (0 for an offline cluster): the reference
// the engine's window power is checked against. It matches the engine's
// derived power except at an instant where a migration downtime ends and
// its unblock timer has not fired yet (see settled); no run that calls it
// has two downtimes end at one instant.
func totalPowerMW(e *Engine) float64 {
	total := 0.0
	for _, cs := range e.clusterList {
		if cs.online {
			total += cs.c.BusyPowerMW(cs.c.OPPs[cs.oppIdx], cs.c.Cores, e.computeClusterUtil(cs))
		}
	}
	return total
}
