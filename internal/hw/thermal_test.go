package hw

import (
	"math"
	"testing"
)

// TestDecayMemoMatchesExp: every factor the memo hands out is math.Exp's,
// bit for bit, whether it is a first evaluation, a hit, a slot some other
// dt took over in between, or the same dt under another τ. The dts are
// chosen so several of them share a slot.
func TestDecayMemoMatchesExp(t *testing.T) {
	// Gather dts that collide with the first one.
	base := 1.0 / 60
	colliding := []float64{base}
	for i := 1; len(colliding) < 4; i++ {
		if dt := base + float64(i)*1e-6; decaySlot(dt) == decaySlot(base) {
			colliding = append(colliding, dt)
		}
	}
	dts := append([]float64{0.04, 0.1, 1e-9, 7.5, 0}, colliding...)
	taus := []float64{4, 27, 36, 0.5}

	var m DecayMemo
	var calls uint64
	check := func(dt, tau float64) {
		t.Helper()
		calls++
		got, want := m.Factor(dt, tau), math.Exp(-dt/tau)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Factor(%v, %v) = %v, want math.Exp's %v", dt, tau, got, want)
		}
	}
	for range 3 {
		for _, tau := range taus {
			for _, dt := range dts {
				check(dt, tau)
				check(dt, tau) // a hit
			}
		}
		// Colliding dts in turn evict each other; a τ change at the
		// same dt must miss.
		for _, dt := range colliding {
			for _, tau := range taus {
				check(dt, tau)
			}
		}
	}
	if m.Evals() == 0 || m.Evals() >= calls {
		t.Fatalf("%d math.Exp calls for %d lookups: the memo never hit or never missed", m.Evals(), calls)
	}

	// A fresh memo's empty slots must not answer dt = 0 with their zero
	// factor: τ is never 0.
	var fresh DecayMemo
	if got := fresh.Factor(0, 4); got != 1 {
		t.Fatalf("fresh memo: Factor(0, 4) = %v, want 1", got)
	}
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
