package sim

import (
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

// TestEngineInvariants steps flagship runs one event at a time, through the
// same earliest-event selection step uses, and checks after every event
// that:
//   - the clock moved to the event's time;
//   - the heap holds no completion, unblock or alarm entry (those are
//     timers held in place) and at most a start or a release and a stop
//     per app plus the tick, so superseded events cannot pile up in it;
//   - a thermal window that closed ended at the temperature the closed form
//     gives from where it started, and the next one starts there;
//   - the open window's power is the platform's total power;
//
// and at the end that no more time is spent above a trip point than has
// elapsed. The stress run drives thermal load, a fault, migrations and DVFS
// changes; the hot run is the BenchApps load at 58 °C under a no-op
// controller ticking every 0.1 s, which re-derives the throttle alarm at
// every power change on its way up to the trip point.
func TestEngineInvariants(t *testing.T) {
	hot := hw.FlagshipSoC()
	hot.AmbientC = 58
	for _, tc := range []struct {
		name string
		plat *hw.Platform
		ctrl Controller
		endS float64
	}{
		{"stress", hw.FlagshipSoC(), &stressCtrl{done: map[float64]bool{}}, 16},
		{"hot", hot, &boundaryCtrl{}, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, Config{Platform: tc.plat, Apps: BenchApps(), Controller: tc.ctrl, TickS: 0.1, LogEvents: true})
			maxQueued := 2*len(e.appList) + 1
			slots := make([]int64, len(e.appList))

			e.prime()
			var windows, completionRearms, alarmRearms int
			for {
				ev, ok := e.next()
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
				for _, q := range e.events {
					if q.kind >= hComplete {
						t.Fatalf("at %gs the heap holds a %v entry due at %g", e.now, q.kind, q.t)
					}
				}
				if len(e.events) > maxQueued {
					t.Fatalf("at %gs the heap holds %d entries, want at most %d", e.now, len(e.events), maxQueued)
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
			var alarms int
			for _, ev := range rep.Events {
				if ev.Kind == EvThermalAlarm {
					alarms++
				}
			}
			if alarmRearms == 0 || windows == 0 || alarms == 0 {
				t.Fatalf("run too tame: %d alarm re-arms, %d windows, %d alarms", alarmRearms, windows, alarms)
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
