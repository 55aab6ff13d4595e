package sim

import (
	"fmt"
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
// trip points twice. Each alarm falls on the step boundary after its
// crossing, and the die there is past the trip point. The run's one
// math.Exp call (the per-Reset decay factor) rounds the same with and
// without FMA, so one value set holds on every host.
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
		{2.5, 67.07777945783158},
		{13, 66.44401712120683},
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
		{"MaxTempC", rep.MaxTempC, 101.47330617433244},
		{"OverThrottleS", rep.OverThrottleS, 15.416152340712697},
	} {
		if f.got != f.want {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
}

// TestThermalWorkCounts counts the thermal work of a fixed 20 s flagship
// run: one step per 250 ms. Before the step model the same run closed
// 1101 windows, one per change of total power. A change that moves the
// count changes how much work the engine does and should say so.
func TestThermalWorkCounts(t *testing.T) {
	e := mustEngine(t, Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()})
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Work().ThermalSteps, uint64(80); got != want {
		t.Errorf("%d thermal steps, want %d", got, want)
	}
}

// TestSetAmbientRejectsNonFinite: a NaN or infinite ambient would carry
// into every later temperature, so SetAmbient refuses it and leaves the
// ambient and the planning epoch as they were; the run then reports
// exactly what a twin run that never saw the calls does.
func TestSetAmbientRejectsNonFinite(t *testing.T) {
	cfg := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()}
	e, twin := mustEngine(t, cfg), mustEngine(t, cfg)
	for _, eng := range []*Engine{e, twin} {
		if err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	epoch := e.PlanEpoch()
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := e.SetAmbient(c); err == nil {
			t.Errorf("SetAmbient(%g) accepted", c)
		}
	}
	var s Snapshot
	e.SnapshotInto(&s)
	if s.AmbientC != cfg.Platform.AmbientC || e.PlanEpoch() != epoch {
		t.Fatalf("refused calls moved the ambient to %g (want %g) or the epoch to %d (want %d)",
			s.AmbientC, cfg.Platform.AmbientC, e.PlanEpoch(), epoch)
	}
	for _, eng := range []*Engine{e, twin} {
		if err := eng.Run(5); err != nil {
			t.Fatal(err)
		}
	}
	if diff := reportDiff(twin.Report(), e.Report()); len(diff) > 0 {
		t.Fatalf("refused calls moved %d report fields, first: %s", len(diff), diff[0])
	}
}

// sampler records the die temperature at every tick.
type sampler struct{ at, tempC []float64 }

func (s *sampler) OnTick(e *Engine) {
	s.at, s.tempC = append(s.at, e.Now()), append(s.tempC, e.Temperature())
}

func (s *sampler) OnEvent(*Engine, Event) {}

// TestThermalStepsTrackExactRC drives the step model with a square wave:
// a full-load background app on cpu-big, on for 0.37 s and off for 0.37 s,
// so the power edges never line up with the 0.25 s step grid. Between
// edges power is constant, so chaining TempAfterC from edge to edge gives
// the exact RC trajectory. The ambient puts the wave's mean at the
// throttle point, so the die crosses it again and again.
//
// The bound: within a step of length h the model replaces the power p(s)
// by its average P̄, so its end temperature is off by
// (1/C)·∫(p − P̄)·e^(−(h−s)/τ) ds. The integral of p − P̄ is 0, so the
// kernel can be shifted by the midpoint of its range [e^(−h/τ), 1], which
// leaves an error of at most ΔP·h·(1 − e^(−h/τ))/(2C) ≤ ΔP·Rth·x²/2 per
// step, with x = h/τ and ΔP the power's swing. Earlier errors decay by
// e^(−x) per step, so at every boundary the model is off by at most
// B = ΔP·Rth·x²/(2·(1 − e^(−x))) ≈ ΔP·Rth·h/(2τ). Inside a step the exact
// trajectory strays from the model's monotone one by at most
// (1/C)·ΔP·h = ΔP·Rth·x more, so the peaks differ by at most
// B + ΔP·Rth·x. The time above throttle can differ only in steps where
// one of the two trajectories comes within that distance of the trip
// point, by at most h each.
func TestThermalStepsTrackExactRC(t *testing.T) {
	const halfS, endS = 0.37, 30.0
	var apps []App
	for k := 0; float64(2*k)*halfS < endS; k++ {
		apps = append(apps, App{Name: fmt.Sprintf("bg%d", k), Kind: KindBackground, Util: 1,
			StartS: float64(2*k) * halfS, StopS: float64(2*k+1) * halfS, Placement: Placement{Cluster: "cpu-big", Cores: 4}})
	}
	plat := hw.FlagshipSoC()
	build := func(ctrl Controller) *Engine {
		e := mustEngine(t, Config{Platform: plat, Apps: apps, Controller: ctrl, TickS: thermalStepS, LogEvents: true})
		for _, c := range plat.Clusters {
			if err := e.SetOPP(c.Name, len(c.OPPs)-1); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	// The power with the app on and off.
	probe := build(nil)
	var powerW [2]float64
	for i, at := range []float64{halfS / 2, 3 * halfS / 2} {
		if err := probe.Run(at); err != nil {
			t.Fatal(err)
		}
		powerW[i] = totalPowerMW(probe) / 1000
	}
	on, off := powerW[0], powerW[1]
	th := plat.Thermal
	plat.AmbientC = th.ThrottleC - th.RthKPerW*(on+off)/2

	s := &sampler{}
	e := build(s)
	if err := e.Run(endS); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()

	// The exact trajectory, edge to edge: its temperature at every
	// boundary, its peak and its time above throttle.
	x := thermalStepS / th.TauS()
	swing := (on - off) * th.RthKPerW
	bound := swing * x * x / (2 * -math.Expm1(-x))
	exactAt := map[float64]float64{}
	peak, above, nearSteps := plat.AmbientC, 0.0, 0
	tempC, b := plat.AmbientC, thermalStepS
	lo, hi := tempC, tempC // the exact range over the open step
	for k := 0; float64(k)*halfS < endS; k++ {
		t0, t1, p := float64(k)*halfS, min(float64(k+1)*halfS, endS), off
		if k%2 == 0 {
			p = on
		}
		for ; b <= t1; b += thermalStepS {
			at := th.TempAfterC(plat.AmbientC, p, tempC, b-t0)
			exactAt[b] = at
			lo, hi = min(lo, at), max(hi, at)
			if lo-bound-swing*x <= th.ThrottleC && th.ThrottleC <= hi+bound+swing*x {
				nearSteps++
			}
			lo, hi = at, at
		}
		end := th.TempAfterC(plat.AmbientC, p, tempC, t1-t0)
		lo, hi = min(lo, end), max(hi, end)
		peak = max(peak, end)
		switch {
		case tempC > th.ThrottleC && end > th.ThrottleC:
			above += t1 - t0
		case tempC > th.ThrottleC || end > th.ThrottleC:
			cross, _ := th.TimeToC(plat.AmbientC, p, tempC, th.ThrottleC)
			if end > th.ThrottleC {
				cross = t1 - t0 - cross
			}
			above += cross
		}
		tempC = end
	}

	if len(s.at) != int(endS/thermalStepS) {
		t.Fatalf("%d samples, want one per boundary", len(s.at))
	}
	worst := 0.0
	for i, at := range s.at {
		want, ok := exactAt[at]
		if !ok {
			t.Fatalf("sample %d at %gs, not a boundary", i, at)
		}
		d := math.Abs(s.tempC[i] - want)
		worst = max(worst, d)
		if d > bound {
			t.Errorf("at %gs the model reads %.6g°C, exact %.6g°C: off by %.3gK, bound %.3gK", at, s.tempC[i], want, d, bound)
		}
	}
	if d := math.Abs(rep.MaxTempC - peak); d > bound+swing*x {
		t.Errorf("peak %.6g°C, exact %.6g°C: off by %.3gK, bound %.3gK", rep.MaxTempC, peak, d, bound+swing*x)
	}
	if d := math.Abs(rep.OverThrottleS - above); d > float64(nearSteps)*thermalStepS {
		t.Errorf("%.6gs above throttle, exact %.6gs: off by %.3gs, bound %.3gs", rep.OverThrottleS, above, d, float64(nearSteps)*thermalStepS)
	}
	if above == 0 || above > endS/2 {
		t.Fatalf("the exact trajectory spends %gs of %gs above throttle; the test needs it to cross often", above, endS)
	}
	t.Logf("ΔP %.3gW: worst boundary error %.3gK (bound %.3gK), peak %.6g vs %.6g°C, above throttle %.6g vs %.6gs",
		on-off, worst, bound, rep.MaxTempC, peak, rep.OverThrottleS, above)
}
