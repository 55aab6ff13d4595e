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
	ambient := func(a float64) func() error { return func() error { e.SetAmbient(a); return nil } }
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
// list from the cursor on, the tick, each app's release slot and timer,
// and the throttle alarm.
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
	if e.thermalEvSeq != 0 {
		armed = append(armed, hevent{t: e.thermalEst, seq: e.thermalEvSeq, kind: hThermal, app: -1})
	}
	return armed
}

// refEventOrder is the documented event order, written apart from
// precedes: by time, then timers (completions, unblocks, the alarm)
// ahead of starts, stops, releases and ticks, then by seq.
func refEventOrder(x, y hevent) int {
	class := func(ev hevent) int {
		switch ev.kind {
		case hComplete, hUnblock, hThermal:
			return 0
		}
		return 1
	}
	switch {
	case x.t < y.t:
		return -1
	case x.t > y.t:
		return 1
	case class(x) != class(y):
		return class(x) - class(y)
	case x.seq < y.seq:
		return -1
	case x.seq > y.seq:
		return 1
	}
	return 0
}

// TestEngineInvariants steps flagship runs one event at a time, through the
// same earliest-event selection step uses, and checks before every event
// that next picks the first of every armed event sorted by refEventOrder,
// and after every event that:
//   - the clock moved to the event's time;
//   - the lifecycle list from the cursor on holds only starts and stops,
//     in (t, seq) order, no armed event is due before the clock and no
//     two share a seq;
//   - no app that has stopped has its release slot armed;
//   - a thermal window that closed ended at the temperature the closed form
//     gives from where it started, and the next one starts there;
//   - the open window's power is the platform's total power;
//
// and at the end that no more time is spent above a trip point than has
// elapsed. The stress run drives thermal load, a fault, migrations and DVFS
// changes; the hot run is the BenchApps load at 58 °C under a no-op
// controller ticking every 0.1 s, which re-derives the throttle alarm at
// every power change on its way up to the trip point; the churn run is the
// hot run with the apps starting and stopping out of app order, two starts
// and a stop due at one instant and two stops at another.
func TestEngineInvariants(t *testing.T) {
	hot := hw.FlagshipSoC()
	hot.AmbientC = 58
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
	}{
		{"stress", hw.FlagshipSoC(), BenchApps(), &stressCtrl{done: map[float64]bool{}}, 16, 0},
		{"hot", hot, BenchApps(), &boundaryCtrl{}, 20, 0},
		{"churn", hot, churn, &boundaryCtrl{}, 20, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, Config{Platform: tc.plat, Apps: tc.apps, Controller: tc.ctrl, TickS: 0.1, LogEvents: true})
			slots := make([]int64, len(e.appList))

			e.prime()
			var windows, completionRearms, alarmRearms int
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
				if !ok || ev.t > tc.endS {
					break
				}
				for i, a := range e.appList {
					slots[i] = 0
					if a.completionSeq != 0 && a.completionKind == hComplete && ev.seq != a.completionSeq {
						slots[i] = a.completionSeq
					}
				}
				alarm := e.thermalEvSeq
				if ev.kind == hThermal {
					alarm = 0
				}
				t0, from, powerW, ambient := e.winT0S, e.winT0C, e.winPowerW, e.ambient
				if !e.step(tc.endS) {
					t.Fatal("step refused an event due before the end")
				}
				if e.now != ev.t {
					t.Fatalf("%v event at %g left the clock at %g", ev.kind, ev.t, e.now)
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
				if alarm != 0 && e.thermalEvSeq != 0 && e.thermalEvSeq != alarm {
					alarmRearms++
				}
				if e.winT0S != t0 {
					windows++
					want := e.plat.Thermal.TempAfterC(ambient, powerW, from, e.winT0S-t0)
					if e.winT0S != e.now || e.winT0C != want {
						t.Fatalf("window [%g, %g] from %.12g°C at %gW: next starts at %gs, %.12g°C, want %gs, %.12g°C",
							t0, e.winT0S, from, powerW, e.winT0S, e.winT0C, e.now, want)
					}
				}
				if total := totalPowerMW(e) / 1000; e.winPowerW != total {
					t.Fatalf("at %gs the thermal window runs at %gW, the platform draws %gW", e.now, e.winPowerW, total)
				}
			}
			e.advanceTo(tc.endS)

			rep := e.Report()
			if rep.OverThrottleS > rep.DurationS || rep.OverCriticalS > rep.OverThrottleS {
				t.Errorf("%gs above throttle and %gs above critical in a %gs run", rep.OverThrottleS, rep.OverCriticalS, rep.DurationS)
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
			if alarmRearms == 0 || windows == 0 || alarms == 0 || stops != tc.stops {
				t.Fatalf("run too tame: %d alarm re-arms, %d windows, %d alarms, %d stops (want %d)", alarmRearms, windows, alarms, stops, tc.stops)
			}
			if ctrl, ok := tc.ctrl.(*stressCtrl); ok && (completionRearms == 0 || alarms < 2 || rep.ClusterFails == 0 ||
				rep.Migrations < 2 || rep.OverCriticalS == 0 || ctrl.reads == 0) {
				t.Fatalf("stress run too tame: %d completion re-arms, %d alarms, %d faults, %d migrations, %gs above critical",
					completionRearms, alarms, rep.ClusterFails, rep.Migrations, rep.OverCriticalS)
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
