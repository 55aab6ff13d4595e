package sim_test

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// BenchmarkEngineRunManaged measures a 10-simulated-second run of
// sim.BenchApps under a fresh heuristic rtm.Manager, on one engine Reset
// in place between iterations, with the fleet's tick and event log — the
// shape of every fleet run. Unlike the uncontrolled rows it reaches the
// controller callbacks, replans and the deadline-miss path. It lives in
// the external test package because rtm imports sim.
func BenchmarkEngineRunManaged(b *testing.B) {
	reqs := map[string]rtm.Requirement{
		"dnn1": {MinAccuracy: 0.70, Priority: 1},
		"dnn2": {MinAccuracy: 0.70, Priority: 2},
		"dnn3": {Priority: 1},
	}
	cfg := sim.Config{Platform: hw.FlagshipSoC(), Apps: sim.BenchApps(), TickS: fleet.TickS, LogEvents: true}
	var e *sim.Engine
	run := func() {
		cfg.Controller = rtm.NewManager(reqs)
		var err error
		if e == nil {
			e, err = sim.New(cfg)
		} else {
			err = e.Reset(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm: -benchtime 1x must read the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
