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

// Validate reports parameter errors.
func (t ThermalParams) Validate() error {
	switch {
	case t.RthKPerW <= 0 || t.CthJPerK <= 0:
		return fmt.Errorf("hw: thermal RC must be positive, got R=%f C=%f", t.RthKPerW, t.CthJPerK)
	case t.CriticalC <= t.ThrottleC:
		return fmt.Errorf("hw: critical %f must exceed throttle %f", t.CriticalC, t.ThrottleC)
	}
	return nil
}

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

// TempAfterC returns the temperature dt seconds after the die stood at
// fromC, under constant total power powerW and the given ambient. It is
// the exact solution of the linear ODE,
//
//	T(dt) = S + (T₀ − S)·e^(−dt/τ),   S = SteadyStateC, τ = Rth·Cth,
//
// so one call covers a window of any length.
//
//detlint:hotpath
func (t ThermalParams) TempAfterC(ambientC, powerW, fromC, dt float64) float64 {
	target := t.SteadyStateC(ambientC, powerW)
	return target + (fromC-target)*math.Exp(-dt/(t.RthKPerW*t.CthJPerK))
}

// TimeToC returns how long the die takes to go from fromC to toC under
// constant total power powerW and the given ambient: τ·ln((S − T₀)/(S − T₁)).
// ok is false when the trajectory never gets there — toC is not strictly
// between fromC and the steady state S.
//
//detlint:hotpath
func (t ThermalParams) TimeToC(ambientC, powerW, fromC, toC float64) (s float64, ok bool) {
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
