package fleet

import (
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestForEachRun is the contract of the one worker pool Runner.Run and
// Train share: every index runs exactly once, on at most workers
// goroutines that each hand fn their own run state, workers <= 0 means
// runtime.NumCPU(), one worker runs inline in index order, and n == 0 runs
// nothing.
func TestForEachRun(t *testing.T) {
	cpu := runtime.NumCPU()
	cases := []struct {
		name       string
		workers, n int
		pool       int // distinct run states the pool must use
	}{
		{"no runs", 4, 0, 0},
		{"one worker", 1, 7, 1},
		{"pool", 3, 20, 3},
		{"more workers than runs", 8, 3, 3},
		{"zero is NumCPU", 0, 4*cpu + 1, cpu},
		{"negative is NumCPU", -2, 4*cpu + 1, cpu},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The first tc.pool indices meet at a barrier, so they must
			// run at once on tc.pool distinct goroutines: a smaller pool
			// never gets past it. They then hold the pool busy for a
			// moment, in which a goroutine beyond the pool would take the
			// next index with a run state of its own.
			var barrier sync.WaitGroup
			barrier.Add(tc.pool)
			var (
				mu     sync.Mutex
				calls  = make([]int, tc.n)
				states = map[*worker]bool{}
				order  []int
			)
			done := make(chan struct{})
			go func() {
				defer close(done)
				forEachRun(tc.workers, tc.n, func(i int, w *worker) {
					if i < tc.pool {
						barrier.Done()
						barrier.Wait()
						time.Sleep(20 * time.Millisecond)
					}
					mu.Lock()
					defer mu.Unlock()
					calls[i]++
					states[w] = true
					order = append(order, i)
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("pool never ran %d indices at once", tc.pool)
			}
			for i, c := range calls {
				if c != 1 {
					t.Errorf("index %d ran %d times, want 1", i, c)
				}
			}
			if len(states) != tc.pool {
				t.Errorf("pool used %d run states, want %d", len(states), tc.pool)
			}
			if tc.pool == 1 && !sort.IntsAreSorted(order) {
				t.Errorf("one worker ran out of index order: %v", order)
			}
		})
	}
}

// TestTrainAllReportsLowestIndexError: when several training runs fail,
// Train reports the lowest-index one, not the first to finish. At 8
// workers run 2 is held until run 5 has failed.
func TestTrainAllReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		failed5 := make(chan struct{})
		err := trainAll(workers, make([]trainRun, 12), func(i int, _ *worker) trainRun {
			switch i {
			case 2:
				if workers > 1 {
					<-failed5
				}
				return trainRun{err: errors.New("two")}
			case 5:
				close(failed5)
				return trainRun{err: errors.New("five")}
			}
			return trainRun{}
		})
		if err == nil || !strings.Contains(err.Error(), "training run 2 ") {
			t.Errorf("workers=%d: error %v, want training run 2's", workers, err)
		}
	}
}
