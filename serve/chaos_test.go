package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// The soak's client-side sites: its clients decide them themselves, and
// serve never consults them.
const (
	// siteClientDrop: a firing client abandons its query mid-wait,
	// simulating a disconnecting or timing-out caller.
	siteClientDrop faultinject.Site = "client.drop"
	// siteClientStall: a firing client sleeps before reading its
	// response, simulating a slow consumer.
	siteClientStall faultinject.Site = "client.stall"
)

// envInt reads an integer knob from the environment (the CI chaos-smoke
// job scales the soak up without recompiling).
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// soakAllowed is the closed set of errors a chaos-soaked query may
// legitimately return; anything else is a bug surfaced by the harness.
func soakAllowed(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrShed) ||
		errors.Is(err, ErrBreakerOpen) ||
		errors.Is(err, ErrWatchdog) ||
		errors.Is(err, ErrEngineFault) ||
		errors.Is(err, bfs.ErrEngineBusy) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// TestChaosSoak is the acceptance soak: thousands of queries race
// injected engine panics, spurious acquire failures, sweep crashes,
// artificial latency and disconnecting clients — all from one fixed
// seed. Every non-rejected response must carry depths byte-identical
// to the serial reference, no admission ticket may leak, and once
// injection stops the daemon must return to ready (breakers closed)
// with no leftover goroutines after shutdown.
//
// CHAOS_SCALE / CHAOS_QUERIES scale it up for CI's chaos-smoke job.
func TestChaosSoak(t *testing.T) {
	scale := envInt("CHAOS_SCALE", 11)
	queries := envInt("CHAOS_QUERIES", 5000)
	if testing.Short() {
		queries = min(queries, 500)
	}

	g, err := gen.RMAT(gen.Graph500Params(scale, 8), 42)
	if err != nil {
		t.Fatal(err)
	}

	plan := &faultinject.Plan{
		Seed: 42,
		Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteEngineStep: {FaultProb: 0.002, Panic: true, DelayProb: 0.02, MaxDelay: 200 * time.Microsecond},
			faultinject.SiteAcquire:    {FaultProb: 0.02, Err: bfs.ErrEngineBusy, DelayProb: 0.05, MaxDelay: 100 * time.Microsecond},
			faultinject.SiteSweep:      {FaultProb: 0.01, Panic: true, DelayProb: 0.05, MaxDelay: 200 * time.Microsecond},
			siteClientDrop:             {FaultProb: 0.02, Err: faultinject.ErrInjected},
			siteClientStall: {DelayProb: 0.02, MaxDelay: 2 * time.Millisecond,
				FaultProb: 0, Err: nil},
		},
	}

	baseline := runtime.NumGoroutine()
	s := New(Config{
		PoolSize:         2,
		MaxQueue:         64,
		BatchThreshold:   4,
		CacheEntries:     16,
		DefaultTimeout:   5 * time.Second,
		BreakerThreshold: 8,
		BreakerCooldown:  50 * time.Millisecond,
		WatchdogMult:     8,
		ShedTarget:       100 * time.Millisecond,
		Injector:         plan,
	})
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}

	// Serial reference depths for a rotating set of sources.
	const nSources = 64
	sources := make([]uint32, nSources)
	wants := make([][]int32, nSources)
	for i := range sources {
		sources[i] = uint32((i * 131) % g.NumVertices())
		wants[i] = serialDepths(t, g, sources[i])
	}

	const workers = 32
	perWorker := queries / workers
	var clientSeq faultinject.Sequencer
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				idx := (w*perWorker + q) % nSources
				timeout := 5 * time.Second
				// A "dropped" client gives up almost immediately,
				// abandoning its flight mid-queue or mid-run.
				drop := faultinject.Decide(plan, siteClientDrop,
					clientSeq.Next(siteClientDrop))
				if drop.Err != nil {
					timeout = time.Duration(1+q%3) * time.Millisecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				resp, err := s.Query(ctx, Request{Graph: "g", Source: sources[idx], AllDepths: true})
				cancel()
				if err != nil {
					failed.Add(1)
					if !soakAllowed(err) {
						select {
						case errCh <- fmt.Errorf("worker %d query %d: unexpected error %w", w, q, err):
						default:
						}
					}
					continue
				}
				// A "stalled" client reads its response slowly; the result
				// it finally reads must still be exact.
				stall := faultinject.Decide(plan, siteClientStall,
					clientSeq.Next(siteClientStall))
				if stall.Delay > 0 {
					time.Sleep(stall.Delay)
				}
				for v, want := range wants[idx] {
					if resp.Depths[v] != want {
						select {
						case errCh <- fmt.Errorf("worker %d: depth(%d) from source %d = %d, want %d",
							w, v, sources[idx], resp.Depths[v], want):
						default:
						}
						break
					}
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ok.Load() == 0 {
		t.Fatal("no query succeeded under chaos")
	}

	st := s.Stats()
	t.Logf("soak: %d ok, %d failed; stats %+v", ok.Load(), failed.Load(), st)
	if st.PanicsRecovered == 0 && st.Rejected == 0 && st.Expired == 0 && failed.Load() == 0 {
		t.Error("chaos plan never engaged — injection rates or sites are dead")
	}

	// Injection stops: the service must return to fully ready (breakers
	// closed, queue drained) and keep answering exactly.
	plan.SetEnabled(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := s.Query(context.Background(), Request{Graph: "g", Source: sources[0]}); err == nil {
			if rs := s.Ready(); rs.Ready && s.QueueDepth() == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered after injection stopped: ready=%+v depth=%d",
				s.Ready(), s.QueueDepth())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := s.Query(context.Background(), Request{Graph: "g", Source: sources[1], AllDepths: true})
	if err != nil {
		t.Fatalf("post-chaos query failed: %v", err)
	}
	for v, want := range wants[1] {
		if resp.Depths[v] != want {
			t.Fatalf("post-chaos depth(%d) = %d, want %d", v, resp.Depths[v], want)
		}
	}

	// Shutdown leaks nothing: goroutines settle back to the baseline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	gdeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(gdeadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBreakerTripsAndRecovers: consecutive engine panics trip the
// graph's breaker (typed fast-fail with Retry-After), /readyz goes
// unready, and once the fault clears a half-open probe recloses it.
// Along the way each poisoned engine is quarantined and rebuilt.
func TestBreakerTripsAndRecovers(t *testing.T) {
	g := testGraph(t)
	plan := &faultinject.Plan{
		Seed: 1,
		Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteEngineStep: {FaultProb: 1, Panic: true},
		},
	}
	s := newTestService(t, g, Config{
		CacheEntries:     -1,
		BatchThreshold:   100, // force the per-engine path
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
		Injector:         plan,
	})

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_, err := s.Query(ctx, Request{Graph: "g", Source: uint32(i)})
		if !errors.Is(err, ErrEngineFault) {
			t.Fatalf("query %d: err = %v, want ErrEngineFault", i, err)
		}
	}
	_, err := s.Query(ctx, Request{Graph: "g", Source: 50})
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("after %d faults: err = %v, want BreakerOpenError", 3, err)
	}
	if boe.Graph != "g" || boe.RetryAfter <= 0 {
		t.Fatalf("breaker error lacks retry hint: %+v", boe)
	}
	if rs := s.Ready(); rs.Ready {
		t.Fatal("service ready with an open breaker")
	}

	// Fault clears; after cooldown one probe recloses the breaker.
	plan.SetEnabled(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Query(ctx, Request{Graph: "g", Source: 60}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never reclosed after fault cleared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rs := s.Ready(); !rs.Ready {
		t.Fatalf("service not ready after recovery: %+v", rs)
	}
	st := s.Stats()
	if st.PanicsRecovered == 0 || st.EnginesRetired == 0 || st.BreakerRejected == 0 {
		t.Errorf("containment counters flat: %+v", st)
	}
	if st.GraphEvictions != 0 {
		t.Errorf("unexpected evictions: %+v", st)
	}
}

// TestBreakerProbeFromCacheHits is the regression test for the breaker
// liveness bug: cache hits used to return before the breaker was ever
// consulted, so a tripped graph whose traffic was all hits never claimed
// its half-open probe and stayed not-ready for ever. Trip the breaker,
// wait out the cooldown, send only cached sources, expect ready.
func TestBreakerProbeFromCacheHits(t *testing.T) {
	g := testGraph(t)
	plan := &faultinject.Plan{
		Seed: 1,
		Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteEngineStep: {FaultProb: 1, Panic: true},
		},
	}
	plan.SetEnabled(false)
	s := newTestService(t, g, Config{
		BatchThreshold:   100, // force the per-engine path
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		Injector:         plan,
	})
	ctx := context.Background()
	cached := []uint32{1, 2, 3}
	for _, src := range cached {
		if _, err := s.Query(ctx, Request{Graph: "g", Source: src}); err != nil {
			t.Fatalf("warming source %d: %v", src, err)
		}
	}
	plan.SetEnabled(true)
	for src := uint32(10); src < 12; src++ {
		if _, err := s.Query(ctx, Request{Graph: "g", Source: src}); !errors.Is(err, ErrEngineFault) {
			t.Fatalf("source %d: err = %v, want ErrEngineFault", src, err)
		}
	}
	plan.SetEnabled(false)
	if rs := s.Ready(); rs.Ready || rs.Graphs[0].Breaker != BreakerOpen {
		t.Fatalf("breaker did not trip: %+v", rs)
	}
	// Still cooling down: hits are answered from the cache, as before,
	// and claim nothing.
	if resp, err := s.Query(ctx, Request{Graph: "g", Source: cached[0]}); err != nil || !resp.Cached {
		t.Fatalf("hit while the breaker cools down: resp %+v, err %v", resp, err)
	}
	for s.Ready().Graphs[0].Breaker == BreakerOpen {
		time.Sleep(time.Millisecond) // wait out the cooldown
	}
	// Nothing but cached sources from here on. The first one runs as the
	// probe (a real traversal, so not Cached) and recloses the breaker.
	resp, err := s.Query(ctx, Request{Graph: "g", Source: cached[1]})
	if err != nil {
		t.Fatalf("probe from a cached source: %v", err)
	}
	if resp.Cached {
		t.Error("the half-open probe was answered from the cache: it proves nothing about the engine")
	}
	if rs := s.Ready(); !rs.Ready {
		t.Fatalf("all-hit traffic never reclosed the breaker: %+v", rs)
	}
	hits := s.Stats().CacheHits
	for _, src := range cached {
		if resp, err := s.Query(ctx, Request{Graph: "g", Source: src}); err != nil || !resp.Cached {
			t.Fatalf("hit on source %d after recovery: resp %+v, err %v", src, resp, err)
		}
	}
	if got := s.Stats().CacheHits - hits; got != int64(len(cached)) {
		t.Errorf("cache hits after recovery = %d, want %d", got, len(cached))
	}
}

// stallInjector stalls the first engine step it sees for a fixed
// duration, then goes quiet — a deterministic stand-in for a wedged
// traversal.
type stallInjector struct {
	d     time.Duration
	fired atomic.Bool
}

func (si *stallInjector) Decide(site faultinject.Site, key uint64) faultinject.Decision {
	if site == faultinject.SiteEngineStep && si.fired.CompareAndSwap(false, true) {
		return faultinject.Decision{Delay: si.d}
	}
	return faultinject.Decision{}
}

// TestWatchdogFreesStuckTraversal: a traversal wedged far past its
// budget is hard-cancelled by the watchdog and its waiter receives
// ErrWatchdog promptly — it does not hang for the stall's duration.
func TestWatchdogFreesStuckTraversal(t *testing.T) {
	g, err := gen.Grid2D(20, 20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 600 * time.Millisecond
	s := newTestService(t, g, Config{
		CacheEntries:   -1,
		BatchThreshold: 100,
		DefaultTimeout: 20 * time.Millisecond, // watchdog budget for deadline-less queries
		WatchdogMult:   2,
		Injector:       &stallInjector{d: stall},
	})
	start := time.Now()
	_, qerr := s.Query(context.Background(), Request{Graph: "g", Source: 0})
	waited := time.Since(start)
	if !errors.Is(qerr, ErrWatchdog) {
		t.Fatalf("err = %v (after %v), want ErrWatchdog", qerr, waited)
	}
	if waited >= stall {
		t.Fatalf("waiter hung %v — watchdog did not free it before the stall ended", waited)
	}
	if st := s.Stats(); st.WatchdogFired == 0 {
		t.Errorf("watchdog not counted: %+v", st)
	}
	// The stalled engine unwinds (rctx was cancelled) and the service
	// keeps answering.
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 1}); err != nil {
		t.Fatalf("query after watchdog: %v", err)
	}
}

// TestDeadlineStormReleasesTickets is the regression test for the
// queued-ticket leak: a storm of queries whose contexts expire while
// still queued — both engine slots are held open, so nothing queued can
// start — must release every admission ticket, leaving the queue empty
// and the service accepting fresh work.
func TestDeadlineStormReleasesTickets(t *testing.T) {
	gate := newRunGate(parkAll)
	s := newGatedService(t, gate, Config{
		MaxQueue:   8,
		ShedTarget: -1, // isolate the abandon path from shedding
		// ... and from the watchdog: the held-open runs outlive their
		// 1–5 ms budgets by design.
		WatchdogMult: -1,
	})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
			defer cancel()
			_, err := s.Query(ctx, Request{Graph: "g", Source: uint32(i % 100)})
			if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, ErrOverloaded) {
				t.Errorf("query %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// Every caller has given up. Only the two held-open runs may still
	// hold tickets; before the abandon fix, flights whose waiters all
	// expired while queued pinned the queue full forever.
	if d := s.QueueDepth(); d > 2 {
		t.Fatalf("leaked admission tickets: queue depth %d after storm with 2 runs held open", d)
	}
	gate.open()
	waitSched(t, s, sched{})
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("leaked admission tickets: queue depth %d after storm", d)
	}
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 7}); err != nil {
		t.Fatalf("fresh query after storm: %v", err)
	}
	if st := s.Stats(); st.Abandoned == 0 {
		t.Errorf("no abandoned flights counted in a deadline storm: %+v", st)
	}
}

// TestShedOldestUnderOverload: with the queue full of stale flights, a
// newcomer is admitted by shedding the oldest queued flight (typed
// ErrShed) instead of being tail-dropped.
func TestShedOldestUnderOverload(t *testing.T) {
	gate := newRunGate(parkAll)
	s := newGatedService(t, gate, Config{
		PoolSize:   1,
		MaxQueue:   3,
		ShedTarget: 10 * time.Millisecond,
	})
	// One flight holds the only slot; two queue behind it, filling the
	// admission queue.
	running := asyncQuery(s, context.Background(), 0)
	gate.await(t)
	queued := []<-chan outcome{asyncQuery(s, context.Background(), 1)}
	waitSched(t, s, sched{running: 1, pending: []uint32{1}})
	queued = append(queued, asyncQuery(s, context.Background(), 2))
	waitSched(t, s, sched{running: 1, pending: []uint32{1, 2}})
	time.Sleep(30 * time.Millisecond) // age the queue past ShedTarget
	newcomer := asyncQuery(s, context.Background(), 99)
	waitSched(t, s, sched{running: 1, pending: []uint32{2, 99}}) // the oldest queued flight is gone
	gate.open()
	for name, ch := range map[string]<-chan outcome{"running": running, "newcomer": newcomer} {
		if o := mustFinish(t, name, ch); o.err != nil {
			t.Fatalf("%s query: %v", name, o.err)
		}
	}
	shed := 0
	for i, ch := range queued {
		switch o := mustFinish(t, "queued query", ch); {
		case o.err == nil:
		case errors.Is(o.err, ErrShed):
			shed++
		default:
			t.Fatalf("queued client %d: unexpected error %v", i, o.err)
		}
	}
	if shed != 1 {
		t.Fatalf("%d flights shed, want exactly 1 (the oldest)", shed)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed not counted: %+v", st)
	}
}
