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

// update records each hot-path row's allocs/op as its budget instead of
// gating it:
//
//	go test -run TestHotPathAllocs -update .
//
// Only do this after a change that moves a count on purpose, and review
// the BENCH_fleet.json diff like code.
var update = flag.Bool("update", false, "record hot-path allocs/op budgets in BENCH_fleet.json")

// allocBudgets is BENCH_fleet.json: the allocs/op budget of every
// internal/hotbench row and the toolchain that recorded them.
type allocBudgets struct {
	GoVersion   string           `json:"goVersion"`
	AllocsPerOp map[string]int64 `json:"allocsPerOp"`
}

// TestHotPathAllocs is the allocation gate: every hot-path row must stay
// within the allocs/op budget BENCH_fleet.json records for it. Allocation
// counts are deterministic for a toolchain, so any increase fails, as do
// a budgeted row missing from the table and a row with no budget. Each
// row's count at -benchtime 1x must also equal its steady state, so that
// benchmark smoke runs report the number this test gates. With -update
// the test writes the counts it measured as the new budgets, and only
// when every row passed that steady-state check.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const path = "BENCH_fleet.json"
	var base allocBudgets
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record the budgets)", err)
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if base.GoVersion != runtime.Version() {
			t.Logf("budgets were recorded under %s, this is %s", base.GoVersion, runtime.Version())
		}
	}

	bt := flag.Lookup("test.benchtime").Value
	defer bt.Set(bt.String())
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	measured := allocBudgets{GoVersion: runtime.Version(), AllocsPerOp: map[string]int64{}}
	rows := hotbench.Rows()
	for _, row := range rows {
		t.Run(row.Name, func(t *testing.T) {
			got := int64(testing.AllocsPerRun(50, row.Setup(t)))
			measured.AllocsPerOp[row.Name] = got
			if at1x := testing.Benchmark(row.Bench).AllocsPerOp(); at1x != got {
				t.Errorf("-benchtime 1x reads %d allocs/op, steady state is %d", at1x, got)
			}
			if *update {
				return
			}
			budget, ok := base.AllocsPerOp[row.Name]
			if !ok {
				t.Fatalf("no allocsPerOp budget in %s", path)
			}
			if got > budget {
				t.Errorf("%d allocs/op, budget %d", got, budget)
			}
		})
	}

	if !*update {
		for _, row := range rows {
			delete(base.AllocsPerOp, row.Name)
		}
		for _, name := range slices.Sorted(maps.Keys(base.AllocsPerOp)) {
			t.Errorf("%s: budgeted in %s but not a hotbench row", name, path)
		}
		return
	}
	if t.Failed() {
		t.Fatalf("%s left as it was: a row failed", path)
	}
	if len(measured.AllocsPerOp) != len(rows) {
		t.Fatalf("%s left as it was: only %d of %d rows ran", path, len(measured.AllocsPerOp), len(rows))
	}
	out, err := json.MarshalIndent(measured, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", path)
}
