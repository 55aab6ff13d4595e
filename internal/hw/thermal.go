package hw

import (
	"fmt"
	"math"
)

// ThermalParams is a lumped RC thermal model of the SoC package:
//
//	dT/dt = P/Cth − (T − Tamb)/(Rth·Cth)
//
// Steady state is Tamb + Rth·P. ThrottleC is the soft trip point the
// runtime manager must respect (the Fig 2(c) event: "the temperature of
// the SoC exceeds thermal limits"); CriticalC is the hardware emergency
// trip that the simulator reports as a violation.
type ThermalParams struct {
	RthKPerW  float64
	CthJPerK  float64
	ThrottleC float64
	CriticalC float64
}

// Validate reports parameter errors. Every parameter must be finite: a
// NaN or infinite one would carry through the closed forms into every
// reported temperature.
func (t ThermalParams) Validate() error {
	switch {
	case !finite(t.RthKPerW) || !finite(t.CthJPerK) || !finite(t.ThrottleC) || !finite(t.CriticalC):
		return fmt.Errorf("hw: thermal parameters must be finite, got R=%f C=%f throttle=%f critical=%f",
			t.RthKPerW, t.CthJPerK, t.ThrottleC, t.CriticalC)
	case t.RthKPerW <= 0 || t.CthJPerK <= 0:
		return fmt.Errorf("hw: thermal RC must be positive, got R=%f C=%f", t.RthKPerW, t.CthJPerK)
	case t.CriticalC <= t.ThrottleC:
		return fmt.Errorf("hw: critical %f must exceed throttle %f", t.CriticalC, t.ThrottleC)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// SteadyStateC returns the equilibrium temperature at constant power P
// (watts) and the given ambient.
func (t ThermalParams) SteadyStateC(ambientC, powerW float64) float64 {
	return ambientC + t.RthKPerW*powerW
}

// PowerBudgetW returns the maximum sustained power that keeps steady-state
// temperature at or below limitC.
func (t ThermalParams) PowerBudgetW(ambientC, limitC float64) float64 {
	b := (limitC - ambientC) / t.RthKPerW
	if b < 0 {
		return 0
	}
	return b
}

// TauS returns the RC time constant τ = Rth·Cth in seconds.
//
//detlint:hotpath
func (t ThermalParams) TauS() float64 { return t.RthKPerW * t.CthJPerK }

// TempAfterC returns the temperature dt seconds after the die stood at
// fromC, under constant total power powerW and the given ambient. It is
// the exact solution of the linear ODE,
//
//	T(dt) = S + (T₀ − S)·e^(−dt/τ),   S = SteadyStateC, τ = Rth·Cth,
//
// so one call covers a window of any length. It is TempDecayC with the
// decay factor e^(−dt/τ) evaluated afresh; a caller that meets the same
// (dt, τ) over and over reads the factor from a DecayMemo instead.
//
//detlint:hotpath
//detlint:allow deadexport closed-form reference the sim tests compare the engine's memoised thermal path against
func (t ThermalParams) TempAfterC(ambientC, powerW, fromC, dt float64) float64 {
	return t.TempDecayC(ambientC, powerW, fromC, math.Exp(-dt/t.TauS()))
}

// TempDecayC is the closed form behind TempAfterC, given the decay factor
// decay = e^(−dt/τ) of the elapsed time: S + (T₀ − S)·decay. It is the
// one place the formula lives, so a memoised factor gives the same bits
// as TempAfterC.
//
//detlint:hotpath
func (t ThermalParams) TempDecayC(ambientC, powerW, fromC, decay float64) float64 {
	target := t.SteadyStateC(ambientC, powerW)
	return target + (fromC-target)*decay
}

// decaySlots is the size of a DecayMemo: a power of two, so a slot index
// is the top bits of a hash.
const decaySlots = 64

// DecayMemo is a direct-mapped table of thermal decay factors, each slot
// holding {dt, τ, e^(−dt/τ)}. math.Exp is a pure function, so a factor
// read back from the table is exactly the one a fresh evaluation would
// return, and the table stays valid for as long as it lives: nothing has
// to invalidate it. Window lengths repeat (frame periods and inference
// latencies recur), so most lookups hit. The zero value is an empty
// table; an empty slot never matches, because its τ is 0 and every valid
// τ is positive. A DecayMemo is not safe for concurrent use.
type DecayMemo struct {
	slots [decaySlots]decayEntry
	evals uint64
}

type decayEntry struct{ dt, tauS, decay float64 }

// Factor returns e^(−dt/τ), from the table when the slot dt hashes to
// holds the same (dt, τ), and from math.Exp otherwise, which then takes
// the slot over.
//
//detlint:hotpath
func (m *DecayMemo) Factor(dt, tauS float64) float64 {
	s := &m.slots[decaySlot(dt)]
	if s.dt == dt && s.tauS == tauS {
		return s.decay
	}
	m.evals++
	*s = decayEntry{dt: dt, tauS: tauS, decay: math.Exp(-dt / tauS)}
	return s.decay
}

// decaySlot is the slot dt maps to: Fibonacci hashing of dt's bits, whose
// top six bits depend on every bit of dt.
func decaySlot(dt float64) uint64 { return (math.Float64bits(dt) * 0x9e3779b97f4a7c15) >> 58 }

// Evals returns how many times the memo has called math.Exp: the misses
// over its lifetime, a work count for tests.
//
//detlint:allow deadexport test-only counter until it becomes a work-counter row in the allocs table
func (m *DecayMemo) Evals() uint64 { return m.evals }

// TimeToC returns how long the die takes to go from fromC to toC under
// constant total power powerW and the given ambient: τ·ln((S − T₀)/(S − T₁)).
// ok is false when the trajectory never gets there — toC is not strictly
// between fromC and the steady state S. Most calls ask about a crossing
// that is not ahead (a window cooling towards S below toC, or heating
// towards S short of it); they return before dividing.
//
//detlint:hotpath
func (t ThermalParams) TimeToC(ambientC, powerW, fromC, toC float64) (s float64, ok bool) {
	target := t.SteadyStateC(ambientC, powerW)
	// A crossing lies ahead only if fromC < toC < S or S < toC < fromC,
	// so fromC < toC and toC < S hold together or fail together. When
	// they differ, frac below is ≤ 1 or NaN: the answer is known without
	// dividing.
	if (fromC < toC) != (toC < target) || target == toC {
		return 0, false
	}
	frac := (target - fromC) / (target - toC)
	if !(frac > 1) {
		return 0, false
	}
	return t.TauS() * math.Log(frac), true
}
