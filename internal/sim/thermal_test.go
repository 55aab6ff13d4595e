package sim

import (
	"math"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// throttleCtrl scripts a flagship run through the throttle and critical
// trip points: every cluster to its top OPP, then down to the bottom one
// so the die cools below the alarm's clear point, then up again under a
// hotter ambient.
type throttleCtrl struct{ done map[float64]bool }

func (c *throttleCtrl) OnTick(e *Engine) {
	allOPPs := func(top bool) {
		for _, cl := range e.Platform().Clusters {
			idx := 0
			if top {
				idx = len(cl.OPPs) - 1
			}
			if err := e.SetOPP(cl.Name, idx); err != nil {
				panic(err)
			}
		}
	}
	for _, step := range []struct {
		at  float64
		act func()
	}{
		{0.25, func() { allOPPs(true) }},
		{8, func() { allOPPs(false) }},
		{9.5, func() { e.SetAmbient(12) }},
		{12, func() { e.SetAmbient(32); allOPPs(true) }},
		{19, func() { allOPPs(false) }},
	} {
		if e.Now() >= step.at && !c.done[step.at] {
			c.done[step.at] = true
			step.act()
		}
	}
}

func (c *throttleCtrl) OnEvent(*Engine, Event) {}

// throttleRun is a flagship run whose die crosses the throttle and the
// critical trip points, cools below the alarm's clear point and crosses
// them again. No fleet golden gets near the throttle point, so this is
// the run that pins the alarm path.
func throttleRun(t *testing.T) *Engine {
	t.Helper()
	plat := hw.FlagshipSoC()
	plat.Thermal.RthKPerW, plat.Thermal.CthJPerK = 14, 0.25
	plat.AmbientC = 30
	e := mustEngine(t, Config{Platform: plat, Apps: BenchApps(), Controller: &throttleCtrl{done: map[float64]bool{}},
		TickS: 0.25, LogEvents: true})
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestThrottlePathPinned pins, bit for bit, every thermal alarm's time and
// temperature and the report's thermal fields on a run that crosses both
// trip points twice. The values were recorded before the decay factor was
// memoised; the memo must reproduce them exactly.
func TestThrottlePathPinned(t *testing.T) {
	e := throttleRun(t)
	rep := e.Report()
	var alarms [][2]float64
	for _, ev := range rep.Events {
		if ev.Kind == EvThermalAlarm {
			alarms = append(alarms, [2]float64{ev.TimeS, ev.TempC})
		}
	}
	wantAlarms := [][2]float64{
		{2.325356532750515, 65},
		{12.883154781845493, 65.00000000000001},
	}
	if !fusedExp() {
		// math.Exp rounds differently without FMA, and the second
		// crossing lands an ulp either side of the trip point.
		wantAlarms[1] = [2]float64{12.88315478184549, 64.99999999999999}
	}
	if len(alarms) != len(wantAlarms) {
		t.Fatalf("%d thermal alarms %v, want %d %v", len(alarms), alarms, len(wantAlarms), wantAlarms)
	}
	for i, a := range alarms {
		if a != wantAlarms[i] {
			t.Errorf("alarm %d at %v s, %v °C; want %v s, %v °C", i, a[0], a[1], wantAlarms[i][0], wantAlarms[i][1])
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"MaxTempC", rep.MaxTempC, 101.47042446398562},
		{"OverThrottleS", rep.OverThrottleS, 15.414625183371367},
		{"OverCriticalS", rep.OverCriticalS, 9.449484048173924},
	} {
		if f.got != f.want {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
}

// fusedExp reports whether math.Exp takes its fused multiply-add path on
// this host: amd64's math.Exp branches on FMA support (GODEBUG=cpu.fma=off
// turns it off) and its result moves by an ulp on some arguments, -30/997
// among them. Pinned results downstream of math.Exp carry one value for
// each path until the simulator owns its exp.
func fusedExp() bool {
	return math.Exp(-30.0/997) == math.Float64frombits(0x3fef0d2c15501397)
}

// TestThermalWorkCounts counts the thermal work of a fixed flagship run:
// the windows closed, and the math.Exp calls the decay memo made. Before
// the memo every window evaluated its own exp: 1101 windows cost 1096
// calls (a window closed at its own start costs none). The memo answers
// all but 162 of them. A change that moves either count changes how much
// work the engine does and should say so.
func TestThermalWorkCounts(t *testing.T) {
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()})
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if got, want := e.windows, uint64(1101); got != want {
		t.Errorf("%d thermal windows closed, want %d", got, want)
	}
	if got, want := e.decay.Evals(), uint64(162); got != want {
		t.Errorf("%d math.Exp calls, want %d", got, want)
	}
}
