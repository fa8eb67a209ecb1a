package par

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestBarrierRounds(t *testing.T) {
	const workers, rounds = 8, 50
	b := NewBarrier(workers)
	var phase [workers]int32
	Run(workers, func(w int) {
		for r := 0; r < rounds; r++ {
			atomic.StoreInt32(&phase[w], int32(r))
			b.Wait()
			// After the barrier, every worker must be at round r.
			for i := 0; i < workers; i++ {
				if p := atomic.LoadInt32(&phase[i]); p < int32(r) {
					t.Errorf("worker %d at phase %d during round %d", i, p, r)
				}
			}
			b.Wait()
		}
	})
}

func TestBarrierSingle(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must never block
	}
}

func TestBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

func TestRunAllWorkersExecute(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	Run(7, func(w int) {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) != 7 {
		t.Fatalf("saw %d workers, want 7", len(seen))
	}
}

func TestRangeProperties(t *testing.T) {
	f := func(n16 uint16, w8 uint8) bool {
		n := int(n16)
		workers := int(w8)%16 + 1
		// Coverage: ranges tile [0, n) exactly.
		pos := 0
		for w := 0; w < workers; w++ {
			lo, hi := Range(n, w, workers)
			if lo != pos || hi < lo {
				return false
			}
			// Balance: sizes differ by at most one.
			if hi-lo > n/workers+1 {
				return false
			}
			pos = hi
		}
		return pos == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRange64Properties(t *testing.T) {
	f := func(n32 uint32, w8 uint8) bool {
		n := int64(n32)
		workers := int(w8)%16 + 1
		pos := int64(0)
		for w := 0; w < workers; w++ {
			lo, hi := Range64(n, w, workers)
			if lo != pos || hi < lo {
				return false
			}
			pos = hi
		}
		return pos == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		for _, n := range []int{0, 1, 3, 100, 1001} {
			marks := make([]int32, n)
			For(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&marks[i], 1)
				}
			})
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, m)
				}
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

// TestRunRecoversPanic: a panicking worker must surface as a *PanicError
// from Run — with worker id, value and stack — not crash the process,
// and the other workers must still run.
func TestRunRecoversPanic(t *testing.T) {
	var ran int32
	err := Run(4, func(w int) {
		if w == 2 {
			panic("injected")
		}
		atomic.AddInt32(&ran, 1)
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError", err)
	}
	if pe.Worker != 2 || pe.Value != "injected" {
		t.Errorf("PanicError = worker %d value %v", pe.Worker, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(pe.Error(), "worker 2") {
		t.Errorf("message %q lacks worker id", pe.Error())
	}
	if atomic.LoadInt32(&ran) != 3 {
		t.Errorf("%d surviving workers ran, want 3", ran)
	}
}

// TestRunRecoversPanicSingleWorker: the inline workers==1 path recovers
// too.
func TestRunRecoversPanicSingleWorker(t *testing.T) {
	if err := Run(1, func(int) { panic("solo") }); err == nil {
		t.Fatal("single-worker panic not surfaced")
	}
}

// TestPanicErrorUnwrap: a panic with an error value stays errors.Is-able
// through the wrapper.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := fmt.Errorf("sentinel")
	err := Run(2, func(w int) {
		if w == 0 {
			panic(sentinel)
		}
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is failed through PanicError: %v", err)
	}
}

// TestForRecoversPanic mirrors Run's contract on the range helper.
func TestForRecoversPanic(t *testing.T) {
	if err := For(4, 100, func(lo, hi int) { panic("range") }); err == nil {
		t.Fatal("For swallowed a worker panic")
	}
	if err := For(1, 10, func(lo, hi int) { panic("inline") }); err == nil {
		t.Fatal("inline For swallowed a panic")
	}
}

// TestBarrierBreak: breaking a barrier releases current waiters with
// false, fails all later waits, and Reset rearms it.
func TestBarrierBreak(t *testing.T) {
	const workers = 4
	b := NewBarrier(workers)
	var falses int32
	err := Run(workers, func(w int) {
		if w == 0 {
			// Give the others time to block, then poison the barrier —
			// the panic-isolation path in the traversal engine.
			time.Sleep(10 * time.Millisecond)
			b.Break()
			return
		}
		if ok := b.Wait(); !ok {
			atomic.AddInt32(&falses, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if falses != workers-1 {
		t.Fatalf("%d waiters saw the break, want %d", falses, workers-1)
	}
	if b.Wait() {
		t.Error("broken barrier accepted a new waiter")
	}
	b.Reset()
	// Rearmed: a full cohort passes again.
	var passes int32
	if err := Run(workers, func(w int) {
		if b.Wait() {
			atomic.AddInt32(&passes, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if passes != workers {
		t.Fatalf("%d passes after Reset, want %d", passes, workers)
	}
}

// TestBarrierBreakReleasesPollingWaiter: Break releases a waiter that is
// still in a polling stage — spinning or yielding — not only a parked
// one. Each stage's budget is made unbounded so the waiter cannot have
// parked when Break comes; it must return false and never park.
func TestBarrierBreakReleasesPollingWaiter(t *testing.T) {
	for _, stage := range []string{"spin", "yield"} {
		t.Run(stage, func(t *testing.T) {
			b := NewBarrier(2)
			b.spin, b.yield = 0, 1<<30
			if stage == "spin" {
				b.procs = 1 << 30 // spin whatever else the process runs
				b.spin, b.yield = 1<<30, 0
			}
			done := make(chan bool)
			go func() { done <- b.Wait() }()
			for b.count.Load() == 0 {
				time.Sleep(time.Millisecond) // until the waiter has arrived
			}
			b.Break()
			select {
			case ok := <-done:
				if ok {
					t.Fatal("Wait returned true after Break")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Break did not release the polling waiter")
			}
			if n := b.sleepers.Load(); n != 0 {
				t.Fatalf("%d waiters parked; the test meant to break a polling one", n)
			}
		})
	}
}

// TestBarrierPollingRounds runs many rounds with each waiting stage
// alone — spinning, yielding, parking — and with the shipped budgets,
// so a lost release in any of them shows as a hang or a skipped round.
func TestBarrierPollingRounds(t *testing.T) {
	for _, budget := range []struct{ spin, yield int }{{spinPolls, 0}, {0, 1 << 30}, {0, 0}, {spinPolls, yieldPolls}} {
		t.Run(fmt.Sprintf("spin=%d/yield=%d", budget.spin, budget.yield), func(t *testing.T) {
			const workers, rounds = 3, 200
			b := NewBarrier(workers)
			b.spin, b.yield = budget.spin, budget.yield
			var round [workers]int32
			if err := Run(workers, func(w int) {
				for r := int32(1); r <= rounds; r++ {
					atomic.StoreInt32(&round[w], r)
					if !b.Wait() {
						t.Error("unbroken barrier returned false")
						return
					}
					for i := range round {
						if got := atomic.LoadInt32(&round[i]); got < r {
							t.Errorf("worker %d at round %d after barrier %d", i, got, r)
						}
					}
					if !b.Wait() {
						t.Error("unbroken barrier returned false")
						return
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBarrierSpinsOnlyWithFreeProcessors: a Wait spins only while the
// goroutines running Run bodies fit in the processors; with one more
// than that it goes straight to yielding.
func TestBarrierSpinsOnlyWithFreeProcessors(t *testing.T) {
	b := NewBarrier(2)
	if Running() <= b.procs && b.spinBudget() != spinPolls {
		t.Fatalf("spin budget %d with %d of %d processors busy, want %d",
			b.spinBudget(), Running(), b.procs, spinPolls)
	}
	extra := b.procs + 1 - Running()
	var inside sync.WaitGroup
	inside.Add(extra)
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		done <- Run(extra, func(int) {
			inside.Done()
			<-release
		})
	}()
	inside.Wait()
	if got := b.spinBudget(); got != 0 {
		t.Errorf("spin budget %d with %d goroutines in Run bodies on %d processors, want 0",
			got, Running(), b.procs)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunningCountsBodies: Running counts every goroutine inside a Run
// body, from before the first body starts until each body returns,
// panicking ones included.
func TestRunningCountsBodies(t *testing.T) {
	base := Running()
	for _, workers := range []int{1, 3} {
		var inside sync.WaitGroup
		inside.Add(workers)
		release := make(chan struct{})
		done := make(chan error)
		go func() {
			done <- Run(workers, func(w int) {
				inside.Done()
				<-release
				if w == 0 {
					panic("boom")
				}
			})
		}()
		inside.Wait()
		if got := Running(); got != base+workers {
			t.Errorf("workers=%d: Running() = %d inside the bodies, want %d", workers, got, base+workers)
		}
		close(release)
		if err := <-done; err == nil {
			t.Errorf("workers=%d: the panic was not reported", workers)
		}
		if got := Running(); got != base {
			t.Errorf("workers=%d: Running() = %d after Run returned, want %d", workers, got, base)
		}
	}
}
