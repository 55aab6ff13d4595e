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

// TestEngineInvariants steps a faulty, thermally loaded flagship run one
// heap entry at a time and checks, after every entry, that:
//   - a stale entry leaves the clock where it was;
//   - a thermal window that closed ended at the temperature the closed form
//     gives from where it started, and the next one starts there;
//   - the open window's power is the platform's total power;
//
// and at the end that no more time is spent above a trip point than has
// elapsed.
func TestEngineInvariants(t *testing.T) {
	const endS = 16
	ctrl := &stressCtrl{done: map[float64]bool{}}
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC(), Apps: BenchApps(), Controller: ctrl, TickS: 0.1, LogEvents: true})
	stale := func(ev hevent) bool {
		switch ev.kind {
		case hComplete:
			return ev.seq != e.appList[ev.app].completionSeq
		case hThermal:
			return ev.seq != e.thermalEvSeq
		}
		return false
	}

	e.prime()
	var stales, windows int
	for len(e.events) > 0 && e.events[0].t <= endS {
		ev := e.events[0]
		wasStale := stale(ev)
		now, t0, from, powerW, ambient := e.now, e.winT0S, e.winT0C, e.winPowerW, e.ambient
		if !e.step(endS) {
			t.Fatal("step refused an event due before the end")
		}
		if wasStale {
			stales++
			if e.now != now {
				t.Fatalf("stale %v entry at %g moved the clock from %g to %g", ev.kind, ev.t, now, e.now)
			}
			continue
		}
		if e.winT0S != t0 {
			windows++
			want := e.plat.Thermal.TempAfterC(ambient, powerW, from, e.winT0S-t0)
			if e.winT0S != e.now || e.winT0C != want {
				t.Fatalf("window [%g, %g] from %.12g°C at %gW: next starts at %gs, %.12g°C, want %gs, %.12g°C",
					t0, e.winT0S, from, powerW, e.winT0S, e.winT0C, e.now, want)
			}
		}
		if total := e.TotalPowerMW() / 1000; e.winPowerW != total {
			t.Fatalf("at %gs the thermal window runs at %gW, the platform draws %gW", e.now, e.winPowerW, total)
		}
	}
	e.advanceTo(endS)

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
	if stales == 0 || windows == 0 || alarms < 2 || rep.ClusterFails == 0 || rep.Migrations < 2 ||
		rep.OverCriticalS == 0 || ctrl.reads == 0 {
		t.Fatalf("run too tame: %d stale entries, %d windows, %d alarms, %d faults, %d migrations, %gs above critical",
			stales, windows, alarms, rep.ClusterFails, rep.Migrations, rep.OverCriticalS)
	}
}
