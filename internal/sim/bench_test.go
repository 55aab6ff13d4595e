package sim

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// runBenchApps builds an engine over BenchApps and runs it for 10
// simulated seconds.
func runBenchApps(tb testing.TB) {
	e, err := New(Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		tb.Fatal(err)
	}
	if e.Report().DurationS != 10 {
		tb.Fatal("short run")
	}
}

// BenchmarkEngineRun measures one uncontrolled 10-simulated-second run of
// the mixed workload per iteration — the engine share of fleet throughput
// (BenchmarkPolicyPlan and BenchmarkReplan in internal/rtm isolate the
// planning layers above it). Construction is included; see
// BenchmarkEngineRunReuse for the steady-state cost a fleet worker pays.
func BenchmarkEngineRun(b *testing.B) {
	b.ReportAllocs()
	runBenchApps(b) // warm: -benchtime 1x must read the steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchApps(b)
	}
}

// BenchmarkEngineRunReuse measures the same run on one engine Reset in
// place between iterations — the per-scenario cost inside a fleet worker,
// where construction is paid once per worker lifetime.
func BenchmarkEngineRunReuse(b *testing.B) {
	cfg := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
		if e.Report().DurationS != 10 {
			b.Fatal("short run")
		}
	}
}

// TestEngineRunReuseAllocs pins the steady-state allocation budget: a
// Reset+Run cycle on a warmed engine must stay within 10 allocations
// (today's count is lower; the headroom absorbs map-iteration jitter, not
// new per-run allocation). A failure here means the engine hot path
// regained a per-run allocation — find it with
// `go test -run '^$' -bench EngineRunReuse -benchmem ./internal/sim`.
func TestEngineRunReuseAllocs(t *testing.T) {
	cfg := Config{Platform: hw.FlagshipSoC(), Apps: BenchApps()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Fatalf("steady-state Reset+Run costs %.1f allocs/run, budget is 10", avg)
	}
}
