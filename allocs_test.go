package emlrtm

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hotbench"
)

// TestHotPathAllocs is the allocation gate: every hot-path row must stay
// within the allocs/op its BENCH_fleet.json baseline recorded. Allocation
// counts are deterministic for a toolchain, so any increase fails, as do
// a budgeted row missing from the table and a row with no budget. Each
// row's count at -benchtime 1x must also equal its steady state, so that
// smoke runs and fleetbench -quick record the number this test gates.
// Record new budgets with
//
//	GOMAXPROCS=1 go run ./cmd/fleetbench -rebaseline
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	raw, err := os.ReadFile("BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Baseline *struct {
			GoVersion  string `json:"goVersion"`
			Benchmarks map[string]struct {
				AllocsPerOp int64 `json:"allocsPerOp"`
			} `json:"benchmarks"`
		} `json:"baseline"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	base := doc.Baseline
	if base == nil {
		t.Fatal("BENCH_fleet.json records no baseline")
	}
	if base.GoVersion != runtime.Version() {
		t.Logf("budgets were recorded under %s, this is %s", base.GoVersion, runtime.Version())
	}

	bt := flag.Lookup("test.benchtime").Value
	defer bt.Set(bt.String())
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	inTable := map[string]bool{}
	for _, row := range hotbench.Rows() {
		inTable[row.Name] = true
		t.Run(row.Name, func(t *testing.T) {
			budget, ok := base.Benchmarks[row.Name]
			if !ok {
				t.Fatal("no allocsPerOp budget in BENCH_fleet.json's baseline")
			}
			got := int64(testing.AllocsPerRun(50, row.Setup(t)))
			if got > budget.AllocsPerOp {
				t.Errorf("%d allocs/op, budget %d", got, budget.AllocsPerOp)
			}
			if at1x := testing.Benchmark(row.Bench).AllocsPerOp(); at1x != got {
				t.Errorf("-benchtime 1x reads %d allocs/op, steady state is %d", at1x, got)
			}
		})
	}
	for _, name := range slices.Sorted(maps.Keys(base.Benchmarks)) {
		if !inTable[name] {
			t.Errorf("%s: budgeted in BENCH_fleet.json but not a hotbench row", name)
		}
	}
}
