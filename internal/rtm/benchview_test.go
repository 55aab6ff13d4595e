package rtm

import (
	"fmt"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// benchView builds a realistic planning input: the flagship SoC hosting
// sim.BenchApps (three DNN streams, a render app and background load),
// captured after a short warm-up so placements and thermal state are
// non-trivial.
func benchView(tb testing.TB) View {
	mgr := NewManager(Requirements{
		{"dnn1", Requirement{MinAccuracy: 0.70, Priority: 1}},
		{"dnn2", Requirement{MinAccuracy: 0.70, Priority: 2}},
		{"dnn3", Requirement{Priority: 1}},
	})
	e, err := sim.New(sim.Config{
		Platform:   hw.FlagshipSoC(),
		Apps:       sim.BenchApps(),
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Run(2); err != nil {
		tb.Fatal(err)
	}
	return *mgr.buildView(e)
}

// Example of addressing policies through the registry, for the doc page.
func ExamplePolicies() {
	fmt.Println(Policies())
	// Output: [heuristic maxaccuracy minenergy]
}
