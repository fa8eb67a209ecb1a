// Package par provides the minimal parallel-runtime pieces the traversal
// engine needs: a reusable barrier, a fixed pool of persistent workers,
// and helpers to divide index ranges among workers.
//
// The paper's implementation uses pinned pthreads with hand-rolled
// barriers between the phases of every BFS step. Go offers no thread
// pinning, so the pool is a fixed set of goroutines whose index doubles
// as the "hardware thread id" used by the simulated socket topology
// (see internal/numa).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Barrier is a reusable synchronization barrier for a fixed number of
// participants. The zero value is not usable; create one with NewBarrier.
//
// The last participant to arrive releases a round by advancing a
// generation counter. The others wait for it in three stages: they poll
// it (spinPolls times), then poll it between runtime.Gosched calls
// (yieldPolls times), and only then park on a condition variable. The
// first stage runs only while every goroutine running Run bodies in the
// process can have a processor (Running against GOMAXPROCS and the
// CPUs): otherwise the poller would hold a core that the participant it
// waits for, or another engine's worker, needs. The yielding stage
// keeps the wait cheap when goroutines outnumber processors: a waiter
// hands its processor to whatever else is runnable instead of burning
// it.
//
// A barrier can be poisoned with Break: every current and future Wait
// returns false immediately, so a cohort whose member died (panicked)
// drains instead of deadlocking. Reset rearms a broken barrier once all
// participants have returned.
type Barrier struct {
	n     int32
	procs int // min(GOMAXPROCS, NumCPU) at NewBarrier
	spin  int // pure polls before yielding, while Running() <= procs
	yield int // Gosched polls before parking

	count atomic.Int32 // arrivals in the current round
	_     [cacheLine - 4]byte
	gen   atomic.Uint32 // round number; advanced by the last arrival
	_     [cacheLine - 4]byte

	broken   atomic.Bool
	sleepers atomic.Int32 // waiters in (or entering) the parking stage
	mu       sync.Mutex
	cond     *sync.Cond
}

const cacheLine = 64

// The waiting stages of Barrier.Wait, sized on a 2-vCPU host (go1.24).
// One poll costs about 1 ns and one Gosched round trip with nothing else
// runnable 0.12-0.17 us (BenchmarkBarrierPolls), so spinPolls covers
// about 2 us and yieldPolls about 20 us. A round with nothing between
// arrivals costs 0.2-0.5 us polling (BenchmarkBarrier/poll) and 0.4 us
// parked, since the runtime's own idle threads catch the wake-up; but
// with a level's work between rounds a parked waiter's wake-up is an OS
// thread wake-up, about 20 us a level (internal/core's
// BenchmarkSmallLevel/grid/cohort at W=2, two rounds a level: 41-47 us
// a level parked, 19-24 with the yielding stage alone). So a waiter
// gives up and parks after about what parking costs: the classic
// two-competitive bound on spinning.
//
// The spinning stage pays on levels with a little work and costs on
// empty ones. Against the yielding stage alone, in alternating runs at
// W=2: BenchmarkSmallLevel/grid/cohort 16.7-19.4 against 18.8-21.2 us a
// level, grid256 5.0-5.5 against 5.3-5.8 us, BenchmarkEmptyLevel 1.4-1.8
// against 1.1-1.2 us (four pairs each); the benchmark's offline-grid
// workload (a 1024x1024 grid, 2,047 levels) 22.4 against 20.6 qps,
// medians of ten pairs, nine won.
const (
	spinPolls  = 1 << 11
	yieldPolls = 128
)

// NewBarrier returns a barrier for n participants. n must be >= 1.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("par: NewBarrier with n < 1")
	}
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	b := &Barrier{n: int32(n), procs: procs, spin: spinPolls, yield: yieldPolls}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have called Wait, then releases
// them together, returning true. It may be reused for any number of
// rounds. If the barrier is (or becomes) broken, Wait returns false
// immediately for every participant.
func (b *Barrier) Wait() bool {
	if b.broken.Load() {
		return false
	}
	// The round cannot advance before this participant arrives, so gen
	// read here is the current round's.
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		// A waiter announces itself in sleepers before it checks gen
		// under mu, so either it sees the new gen or this sees it.
		if b.sleepers.Load() != 0 {
			b.mu.Lock()
			b.mu.Unlock()
			b.cond.Broadcast()
		}
		return true
	}
	spin := b.spinBudget()
	for i := 0; i < spin+b.yield; i++ {
		if b.gen.Load() != gen {
			return !b.broken.Load()
		}
		if b.broken.Load() {
			return false
		}
		if i >= spin {
			runtime.Gosched()
		}
	}
	b.sleepers.Add(1)
	b.mu.Lock()
	for b.gen.Load() == gen && !b.broken.Load() {
		b.cond.Wait()
	}
	b.mu.Unlock()
	b.sleepers.Add(-1)
	return !b.broken.Load()
}

// spinBudget is the length of the spinning stage for a Wait starting
// now: none while more goroutines run Run bodies than there are
// processors, so the waiter hands its processor over from the first
// poll.
func (b *Barrier) spinBudget() int {
	if Running() > b.procs {
		return 0
	}
	return b.spin
}

// Break poisons the barrier: all participants currently waiting in Wait
// (polling or parked) are released with a false return, as is every
// later Wait. It is safe to call from any goroutine (typically a panic
// handler) and is idempotent.
func (b *Barrier) Break() {
	b.broken.Store(true)
	b.mu.Lock()
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Reset rearms the barrier for a fresh cohort. It must only be called
// when no goroutine is blocked in Wait (e.g. between engine runs, after
// every worker has returned).
func (b *Barrier) Reset() {
	b.count.Store(0)
	b.broken.Store(false)
}

// PanicError reports a panic recovered from a pool worker, preserving the
// worker id, the panic value and the goroutine stack at the panic site.
type PanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker %d panicked: %v", e.Worker, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As see through the recovery wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// running counts the goroutines executing Run bodies, process-wide.
var running atomic.Int64

// Running returns how many goroutines are executing Run bodies across
// the whole process at this moment — engine cohorts, batched sweeps,
// parallel loops, and one-worker Runs such as an engine's serial
// prologue. It is the parallelism the process is asking of its
// processors through this package, for a caller choosing between a
// parallel and a serial path to compare with GOMAXPROCS.
func Running() int { return int(running.Load()) }

// Run launches workers goroutines each executing body(worker) and waits
// for all of them. Bodies typically synchronize internally with a Barrier
// shared across the workers.
//
// A panic in any body is recovered and surfaced as a *PanicError (the
// first one wins) instead of crashing the process; the remaining workers
// still run to completion. Bodies that block on a shared Barrier must
// arrange to Break it on panic — see the engine's worker wrapper — or the
// surviving workers would wait forever for the dead participant.
func Run(workers int, body func(worker int)) error {
	if workers < 1 {
		panic("par: Run with workers < 1")
	}
	var (
		mu    sync.Mutex
		first *PanicError
	)
	running.Add(int64(workers)) // before any body starts: visible at once
	call := func(w int) {
		defer func() {
			running.Add(-1)
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil {
					first = &PanicError{Worker: w, Value: r, Stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		body(w)
	}
	if workers == 1 {
		call(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				call(w)
			}(w)
		}
		wg.Wait()
	}
	if first != nil {
		return first
	}
	return nil
}

// DefaultWorkers returns a sensible worker count: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Range returns the half-open sub-range [lo, hi) of the n items assigned
// to worker w out of workers, using the balanced block distribution
// (first n%workers workers get one extra item).
func Range(n, w, workers int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return
}

// For runs body(i) for every i in [0, n) split across the given number of
// workers with the static block distribution. It is a convenience for
// embarrassingly parallel loops outside the engine's step loop (graph
// construction, validation). Like Run, a panicking body surfaces as a
// *PanicError rather than crashing the process.
func For(workers, n int, body func(lo, hi int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n <= 0 {
			return nil
		}
		return Run(1, func(int) { body(0, n) })
	}
	return Run(workers, func(w int) {
		lo, hi := Range(n, w, workers)
		if lo < hi {
			body(lo, hi)
		}
	})
}

// Range64 is Range for 64-bit sizes.
func Range64(n int64, w, workers int) (lo, hi int64) {
	q, r := n/int64(workers), n%int64(workers)
	lo = int64(w)*q + int64(min(w, int(r)))
	hi = lo + q
	if int64(w) < r {
		hi++
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
