package emlrtm

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
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
// internal/hotbench row, the engine and replan work per op of every row
// that has a work count, and the toolchain that recorded them.
type allocBudgets struct {
	GoVersion   string                   `json:"goVersion"`
	AllocsPerOp map[string]int64         `json:"allocsPerOp"`
	WorkPerOp   map[string]hotbench.Work `json:"workPerOp"`
}

// TestHotPathAllocs is the allocation gate: every hot-path row must stay
// within the allocs/op budget BENCH_fleet.json records for it. Allocation
// counts are deterministic for a toolchain, so any increase fails, as do
// a budgeted row missing from the table and a row with no budget. Each
// row's count at -benchtime 1x must also equal its steady state, so that
// benchmark smoke runs report the number this test gates. A row with a
// work count must do exactly the work the table records for it: its
// steps by kind, the controller callbacks it delivered and the replans
// its manager made and elided are pure functions of the run, so any
// change fails. With -update the test writes the counts it measured as
// the new budgets, and only when every row passed that steady-state
// check.
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
	measured := allocBudgets{GoVersion: runtime.Version(), AllocsPerOp: map[string]int64{}, WorkPerOp: map[string]hotbench.Work{}}
	rows := hotbench.Rows()
	for _, row := range rows {
		t.Run(row.Name, func(t *testing.T) {
			got := int64(testing.AllocsPerRun(50, row.Setup(t)))
			measured.AllocsPerOp[row.Name] = got
			if at1x := allocsAt1x(row.Bench); at1x != got {
				t.Errorf("-benchtime 1x reads %d allocs/op, steady state is %d", at1x, got)
			}
			var work hotbench.Work
			if row.Work != nil {
				work = row.Work(t)
				measured.WorkPerOp[row.Name] = work
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
			if row.Work == nil {
				return
			}
			if want, ok := base.WorkPerOp[row.Name]; !ok {
				t.Errorf("no workPerOp entry in %s", path)
			} else if work != want {
				t.Errorf("work per op %+v, %s records %+v", work, path, want)
			}
		})
	}

	if !*update {
		for _, row := range rows {
			delete(base.AllocsPerOp, row.Name)
			if row.Work != nil {
				delete(base.WorkPerOp, row.Name)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(base.AllocsPerOp)) {
			t.Errorf("%s: budgeted in %s but not a hotbench row", name, path)
		}
		for _, name := range slices.Sorted(maps.Keys(base.WorkPerOp)) {
			t.Errorf("%s: has work per op in %s but is no hotbench row with a work count", name, path)
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

// allocsAt1x reads bench's allocs/op as a -benchtime 1x run reports it,
// leaving out work that is not the op. A throwaway run first warms the
// benchmark harness. The measured run then holds off the garbage
// collector, so a cycle that lands inside it (and empties the sync.Pools
// the op draws from) cannot add allocations to it, and runs on one P, as
// AllocsPerRun runs the steady state: a sync.Pool keeps an item per P, so
// an op that moved to another P between a Put and its Get would miss it.
func allocsAt1x(bench func(*testing.B)) int64 {
	testing.Benchmark(bench)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return testing.Benchmark(bench).AllocsPerOp()
}
