package detlint

import (
	"go/types"
	"strconv"
)

// WallClock flags wall-clock reads and sleeps in determinism-critical
// packages. The simulation owns its clock (Engine.now advances event by
// event); a time.Now or time.Sleep in sim/rtm/fleet/workload/trace couples
// results to the host's scheduler and breaks same-seed → same-bytes.
// Orchestration code that supervises real OS processes legitimately needs
// wall time — those sites carry `//detlint:allow wallclock <reason>`.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "flag wall-clock use in determinism-critical packages",
	Run:  runWallClock,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the host clock. Pure constructors/converters (time.Duration math,
// time.Unix, time.Date) are deterministic and stay legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWallClock(pass *Pass) {
	if !pass.Critical {
		return
	}
	for id, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue
		}
		if !wallClockFuncs[fn.Name()] {
			continue
		}
		pass.Reportf(id.Pos(),
			"time.%s in determinism-critical package: the simulation owns its clock; use simulated time, or //detlint:allow wallclock <reason> for real-process supervision",
			fn.Name())
	}
}

// GlobalRand flags package-level math/rand functions anywhere outside
// tests. The global generator is shared mutable state seeded from the
// runtime: two goroutines interleave draws, and a library init can burn
// values — either silently changes every downstream byte. Elsewhere,
// randomness flows through an explicitly seeded generator (methods on a
// *rand.Rand value are fine; rand.New/NewSource are the seam and stay
// legal). A determinism-critical package may not import math/rand or
// math/rand/v2 at all: its randomness comes from internal/rng, the repo's
// one SplitMix64 stream, so every sampled byte rests on a generator whose
// outputs the repo owns.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "flag package-level math/rand use outside tests, and any math/rand import in determinism-critical packages",
	Run:  runGlobalRand,
}

// globalRandExempt are the constructors that build the explicitly seeded
// generator the rest of the API is forbidden in favour of.
var globalRandExempt = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runGlobalRand(pass *Pass) {
	if pass.Critical {
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(imp.Pos(),
						"%s imported in determinism-critical package: draw from internal/rng's seeded SplitMix64 stream", p)
				}
			}
		}
	}
	for id, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue
		}
		if globalRandExempt[fn.Name()] {
			continue
		}
		pass.Reportf(id.Pos(),
			"package-level rand.%s uses the shared global generator: all randomness must flow through an explicitly seeded *rand.Rand",
			fn.Name())
	}
}
