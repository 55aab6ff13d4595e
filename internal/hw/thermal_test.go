package hw

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// FuzzThermalStep holds one step of the closed form to its contract, for
// every catalog platform's thermal parameters and any finite start
// temperature, average power and ambient (folded into (−1e6, 1e6)): the
// step ends between its start and the steady state, spends between 0 and
// the whole step above throttle (0 when both ends are at or below it, all
// of it when both are above), and alarms exactly when it starts below the
// throttle point and ends at or above it.
func FuzzThermalStep(f *testing.F) {
	f.Add(uint8(0), 25.0, 5.0, 25.0)
	f.Add(uint8(1), 64.9, 5.0, 25.0)
	f.Add(uint8(2), 90.0, 0.0, 25.0)
	f.Add(uint8(2), 65.0, 5.0, 58.0)
	f.Add(uint8(0), 85.0, 0.0, 85.0)
	f.Add(uint8(1), -40.0, 1e4, -1e6)
	names := slices.Sorted(maps.Keys(Catalog()))
	const stepS = 0.25
	f.Fuzz(func(t *testing.T, plat uint8, fromC, powerW, ambientC float64) {
		for _, x := range []*float64{&fromC, &powerW, &ambientC} {
			if math.IsNaN(*x) || math.IsInf(*x, 0) {
				t.Skip("not finite")
			}
			*x = math.Mod(*x, 1e6)
		}
		th := Catalog()[names[int(plat)%len(names)]].Thermal
		st := th.Step(ambientC, powerW, fromC, th.DecayFactor(stepS), stepS)
		lo, hi := fromC, th.SteadyStateC(ambientC, powerW)
		if lo > hi {
			lo, hi = hi, lo
		}
		if !(lo <= st.EndC && st.EndC <= hi) {
			t.Fatalf("%+v from %v °C at %v W, ambient %v °C: ends at %v, outside [%v, %v]",
				th, fromC, powerW, ambientC, st.EndC, lo, hi)
		}
		above, endAbove := fromC > th.ThrottleC, st.EndC > th.ThrottleC
		switch {
		case !(st.OverS >= 0 && st.OverS <= stepS),
			!above && !endAbove && st.OverS != 0,
			above && endAbove && st.OverS != stepS:
			t.Fatalf("%+v from %v °C to %v °C: %v s above throttle in a %v s step", th, fromC, st.EndC, st.OverS, stepS)
		}
		if want := fromC < th.ThrottleC && th.ThrottleC <= st.EndC; st.Alarm != want {
			t.Fatalf("%+v from %v °C to %v °C: alarm %v, want %v", th, fromC, st.EndC, st.Alarm, want)
		}
	})
}

// timeToCRef is TimeToC as it was before the early return: the reference
// the fuzzer holds the fast path to.
func timeToCRef(t ThermalParams, ambientC, powerW, fromC, toC float64) (float64, bool) {
	target := t.SteadyStateC(ambientC, powerW)
	if target == toC {
		return 0, false
	}
	frac := (target - fromC) / (target - toC)
	if !(frac > 1) {
		return 0, false
	}
	return t.RthKPerW * t.CthJPerK * math.Log(frac), true
}

// FuzzTimeToC: returning before the division, when no crossing lies
// ahead, gives exactly what the division-first formula gives, for every
// input, NaNs and infinities included.
func FuzzTimeToC(f *testing.F) {
	f.Add(8.0, 0.5, 25.0, 5.0, 40.0, 65.0)
	f.Add(8.0, 0.5, 25.0, 5.0, 70.0, 65.0)
	f.Add(9.0, 3.0, 25.0, 1.0, 34.0, 34.0)
	f.Add(6.0, 6.0, 25.0, 0.0, 25.0, 25.0)
	f.Add(8.0, 0.5, 58.0, 1.5, 64.0, 65.0)
	f.Add(8.0, 0.5, math.NaN(), 1.0, 30.0, 65.0)
	f.Add(8.0, 0.5, 25.0, math.Inf(1), 30.0, 65.0)
	f.Fuzz(func(t *testing.T, r, c, ambientC, powerW, fromC, toC float64) {
		th := ThermalParams{RthKPerW: r, CthJPerK: c}
		gotS, gotOK := th.TimeToC(ambientC, powerW, fromC, toC)
		wantS, wantOK := timeToCRef(th, ambientC, powerW, fromC, toC)
		if gotOK != wantOK || math.Float64bits(gotS) != math.Float64bits(wantS) {
			t.Fatalf("TimeToC(%v, %v, %v, %v) with R=%v C=%v = (%v, %v), want (%v, %v)",
				ambientC, powerW, fromC, toC, r, c, gotS, gotOK, wantS, wantOK)
		}
	})
}

// TestValidateRejectsNonFinite: a NaN or infinite thermal parameter or
// ambient would make every reported temperature NaN, so a platform with
// one is invalid.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(p *Platform)
	}{
		{"Rth NaN", func(p *Platform) { p.Thermal.RthKPerW = nan }},
		{"Rth +Inf", func(p *Platform) { p.Thermal.RthKPerW = inf }},
		{"Cth NaN", func(p *Platform) { p.Thermal.CthJPerK = nan }},
		{"Cth +Inf", func(p *Platform) { p.Thermal.CthJPerK = inf }},
		{"throttle NaN", func(p *Platform) { p.Thermal.ThrottleC = nan }},
		{"throttle -Inf", func(p *Platform) { p.Thermal.ThrottleC = -inf }},
		{"critical NaN", func(p *Platform) { p.Thermal.CriticalC = nan }},
		{"critical +Inf", func(p *Platform) { p.Thermal.CriticalC = inf }},
		{"ambient NaN", func(p *Platform) { p.AmbientC = nan }},
		{"ambient -Inf", func(p *Platform) { p.AmbientC = -inf }},
	} {
		p := FlagshipSoC()
		tc.set(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}
