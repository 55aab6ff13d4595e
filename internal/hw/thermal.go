package hw

import (
	"fmt"
	"math"
)

// ThermalParams is a lumped RC thermal model of the SoC package:
//
//	dT/dt = P/Cth − (T − Tamb)/(Rth·Cth)
//
// Steady state is Tamb + Rth·P. The simulator advances it in fixed steps
// (see Step): each step holds the step's average power constant and is
// solved in closed form, so a step's end temperature is exact for that
// average, and the trajectory inside the step deviates from the true one
// by at most the power's swing times Rth·step/τ. ThrottleC is the soft
// trip point the runtime manager must respect (the Fig 2(c) event: "the
// temperature of the SoC exceeds thermal limits"); a throttle alarm is
// raised at the end of the step that crossed it, so at most one step
// late. CriticalC is the hardware emergency trip point; the simulator
// reports the peak temperature, which says whether it was passed.
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
// so one call covers an interval of any length: TempDecayC with the decay
// factor DecayFactor(dt).
//
//detlint:allow deadexport closed-form reference the sim tests compare the engine's thermal steps against
func (t ThermalParams) TempAfterC(ambientC, powerW, fromC, dt float64) float64 {
	return t.TempDecayC(ambientC, powerW, fromC, t.DecayFactor(dt))
}

// DecayFactor returns e^(−dt/τ), the share of the distance to steady
// state that is left after dt seconds.
func (t ThermalParams) DecayFactor(dt float64) float64 { return math.Exp(-dt / t.TauS()) }

// TempDecayC is the closed form behind TempAfterC, given the decay factor
// decay = e^(−dt/τ) of the elapsed time: S + (T₀ − S)·decay. It is the
// one place the formula lives, so a factor computed once gives the same
// bits as TempAfterC.
//
//detlint:hotpath
func (t ThermalParams) TempDecayC(ambientC, powerW, fromC, decay float64) float64 {
	target := t.SteadyStateC(ambientC, powerW)
	return target + (fromC-target)*decay
}

// ThermalStep is the outcome of one fixed-length step of the RC model
// (see ThermalParams.Step).
type ThermalStep struct {
	EndC  float64 // die temperature at the step's end
	OverS float64 // time within the step spent above ThrottleC, in [0, step]
	// Alarm says the step crossed ThrottleC upward: it started below the
	// trip point and ended at or above it.
	Alarm bool
}

// Step advances the die by one step of stepS seconds from fromC, under
// the step's average power powerW held constant and the given ambient;
// decay must be DecayFactor(stepS). Under constant power the trajectory
// is monotone, so the step's peak is the larger of its ends, and the
// throttle point is crossed at most once, at TimeToC's closed-form time.
//
//detlint:hotpath
func (t ThermalParams) Step(ambientC, powerW, fromC, decay, stepS float64) ThermalStep {
	end := t.TempDecayC(ambientC, powerW, fromC, decay)
	st := ThermalStep{EndC: end, Alarm: fromC < t.ThrottleC && t.ThrottleC <= end}
	switch from, to := fromC > t.ThrottleC, end > t.ThrottleC; {
	case from && to:
		st.OverS = stepS
	case from != to:
		cross, ok := t.TimeToC(ambientC, powerW, fromC, t.ThrottleC)
		switch {
		case !ok && fromC == t.ThrottleC:
			cross = 0 // heating away from the trip point itself
		case !ok || cross > stepS:
			cross = stepS // rounding put the crossing at the step's end
		}
		if to {
			st.OverS = stepS - cross
		} else {
			st.OverS = cross
		}
	}
	return st
}

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
