package sim

import (
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// stressCtrl drives a flagship run through thermal load, a cluster fault,
// migrations with downtime and DVFS changes from the tick hook, and reads
// the temperature on every tick and event.
type stressCtrl struct {
	done  map[float64]bool
	reads int
}

func (c *stressCtrl) at(e *Engine, s float64, act func() error) {
	if e.Now() >= s && !c.done[s] {
		c.done[s] = true
		if err := act(); err != nil {
			panic(err)
		}
	}
}

func (c *stressCtrl) OnTick(e *Engine) {
	e.Temperature()
	c.reads++
	ambient := func(a float64) func() error { return func() error { return e.SetAmbient(a) } }
	c.at(e, 1, ambient(90))
	c.at(e, 2, func() error { return e.SetOPP("gpu", 0) })
	c.at(e, 2.5, func() error { return e.SetOPP("cpu-big", 1) })
	c.at(e, 3, func() error { return e.SetClusterOnline("cpu-big", false) })
	c.at(e, 4, func() error { return e.Migrate("dnn2", Placement{Cluster: "cpu-lit", Cores: 1}) })
	c.at(e, 6, func() error { return e.SetClusterOnline("cpu-big", true) })
	c.at(e, 6.5, func() error { return e.Migrate("dnn2", Placement{Cluster: "cpu-big", Cores: 4}) })
	c.at(e, 9, ambient(25))
	c.at(e, 12, ambient(90))
}

func (c *stressCtrl) OnEvent(e *Engine, ev Event) {
	e.Temperature()
	c.reads++
}

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

// TestEngineInvariants steps runs one step at a time, through the
// same earliest-event selection step uses, and checks before every step
// that next picks the first of every armed event sorted by refEventOrder,
// and after every step that:
//   - a thermal step boundary due at or before the event was handled
//     first, and the event too unless the boundary raised an alarm or
//     the next boundary comes first; the clock moved to the last of them;
//   - the next boundary lies after the clock, at most one step ahead;
//   - the lifecycle list from the cursor on holds only starts and stops,
//     in (t, seq) order, no armed event is due before the clock and no
//     two share a seq;
//   - no app that has stopped has its release slot armed;
//   - each thermal step starts where the last one ended, and ends, bit
//     for bit, at TempDecayC of its start, its average power (the energy
//     the platform gained over it, over its length) and the decay factor
//     computed once per Reset;
//   - the open energy segments run at the platform's total power;
//
// and at the end that no more time is spent above throttle than has
// elapsed. The stress run drives thermal load, a fault, migrations and DVFS
// changes; the hot run is the BenchApps load at 58 °C under a no-op
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
	for _, tc := range []struct {
		name  string
		plat  *hw.Platform
		apps  []App
		ctrl  Controller
		endS  float64
		stops int
		ties  int
	}{
		{"stress", hw.FlagshipSoC(), BenchApps(), &stressCtrl{done: map[float64]bool{}}, 16, 0, 0},
		{"hot", hot, BenchApps(), &boundaryCtrl{}, 20, 0, 0},
		{"churn", hot, churn, &boundaryCtrl{}, 20, 4, 0},
		{"tie", cool, []App{tieApp(cool)}, nil, 20, 0, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, Config{Platform: tc.plat, Apps: tc.apps, Controller: tc.ctrl, TickS: 0.1, LogEvents: true})
			slots := make([]int64, len(e.appList))

			e.prime()
			th := &e.plat.Thermal
			if e.stepDecay != th.DecayFactor(thermalStepS) {
				t.Fatalf("decay factor %v, want %v", e.stepDecay, th.DecayFactor(thermalStepS))
			}
			lastEnd, lastEnergy := e.tempC, 0.0
			var steps, completionRearms, ties int
			for {
				ev, ok := e.next()
				armed := armedEvents(e)
				slices.SortFunc(armed, refEventOrder)
				switch {
				case len(armed) == 0 && ok:
					t.Fatalf("at %gs nothing is armed, next returned %+v", e.now, ev)
				case len(armed) > 0 && (!ok || ev != armed[0]):
					t.Fatalf("at %gs next returned %+v (ok %v), the earliest armed event is %+v", e.now, ev, ok, armed[0])
				}
				ok = ok && ev.t <= tc.endS
				b := e.stepT
				boundary := b <= tc.endS && (!ok || b <= ev.t)
				if !ok && !boundary {
					break
				}
				if ok && len(armed) > 1 && armed[1].t == ev.t && eventClass(armed[1]) != eventClass(ev) {
					ties++
				}
				for i, a := range e.appList {
					slots[i] = 0
					if a.completionSeq != 0 && a.completionKind == hComplete && ev.seq != a.completionSeq {
						slots[i] = a.completionSeq
					}
				}
				from, e0, ambient, wasAlarmed := e.tempC, e.stepE0, e.ambient, e.alarmed
				if from != lastEnd || e0 != lastEnergy {
					t.Fatalf("at %gs the open step starts at %.17g°C, %.17gmJ; the last one ended at %.17g°C, %.17gmJ",
						e.now, from, e0, lastEnd, lastEnergy)
				}
				energy := e.energyAt(b) // the open segments hold until the event
				if !e.step(tc.endS) {
					t.Fatal("step refused an event or boundary due before the end")
				}
				handled := ok
				if boundary {
					steps++
					want := th.TempDecayC(ambient, stepPowerW(e0, energy), from, th.DecayFactor(thermalStepS))
					if e.stepT != b+thermalStepS || e.tempC != want || e.stepE0 != energy {
						t.Fatalf("step ending at %gs from %.17g°C: next boundary %g, end %.17g°C at %.17gmJ, want %g, %.17g°C at %.17gmJ",
							b, from, e.stepT, e.tempC, e.stepE0, b+thermalStepS, want, energy)
					}
					lastEnd, lastEnergy = e.tempC, energy
					alarmed := !wasAlarmed && e.alarmed
					handled = ok && !alarmed && ev.t < e.stepT
				} else if e.stepT != b {
					t.Fatalf("at %gs the boundary moved from %g to %g", e.now, b, e.stepT)
				}
				switch {
				case handled && e.now != ev.t:
					t.Fatalf("%v event at %g left the clock at %g", ev.kind, ev.t, e.now)
				case !handled && e.now != b:
					t.Fatalf("boundary at %g left the clock at %g", b, e.now)
				case !(e.stepT-thermalStepS <= e.now && e.now < e.stepT):
					t.Fatalf("at %gs the next boundary is at %g", e.now, e.stepT)
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
			if ctrl, ok := tc.ctrl.(*stressCtrl); ok && (completionRearms == 0 || alarms < 2 || rep.ClusterFails == 0 ||
				rep.Migrations < 2 || rep.MaxTempC <= th.CriticalC || ctrl.reads == 0) {
				t.Fatalf("stress run too tame: %d completion re-arms, %d alarms, %d faults, %d migrations, peak %g°C",
					completionRearms, alarms, rep.ClusterFails, rep.Migrations, rep.MaxTempC)
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
