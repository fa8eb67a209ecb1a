package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// runGate holds traversals open from the inside, so scheduler tests
// never sleep to "keep a run busy": installed as the engines' StepHook
// it parks a single-source run at its first step, and as the service's
// Injector it parks a sweep at the sweep.run site, until the test hands
// that run a pass. Runs beyond the first `hold` go through untouched.
type runGate struct {
	hold    atomic.Int64  // runs still to park
	entered chan string   // "single" or "sweep", one per parked run
	pass    chan struct{} // one receive lets one parked run continue
	opened  sync.Once
}

// parkAll as newRunGate's hold parks every run until open.
const parkAll = 1 << 40

func newRunGate(hold int64) *runGate {
	g := &runGate{entered: make(chan string, 256), pass: make(chan struct{})}
	g.hold.Store(hold)
	return g
}

func (g *runGate) park(kind string) {
	if g.hold.Add(-1) < 0 {
		return
	}
	g.entered <- kind
	<-g.pass
}

func (g *runGate) stepHook(step int) {
	if step == 1 {
		g.park("single")
	}
}

func (g *runGate) Decide(site faultinject.Site, key uint64) faultinject.Decision {
	if site == faultinject.SiteSweep {
		g.park("sweep")
	}
	return faultinject.Decision{}
}

// await returns the kind of the next run to park.
func (g *runGate) await(t *testing.T) string {
	t.Helper()
	select {
	case kind := <-g.entered:
		return kind
	case <-time.After(10 * time.Second):
		t.Fatal("no run reached the gate")
		return ""
	}
}

// admit lets exactly one parked run continue.
func (g *runGate) admit(t *testing.T) {
	t.Helper()
	select {
	case g.pass <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("no run parked at the gate")
	}
}

// open releases every parked run and stops parking new ones.
func (g *runGate) open() {
	g.opened.Do(func() {
		g.hold.Store(0)
		close(g.pass)
	})
}

// newGatedService builds a cache-less service over the shared test graph
// whose runs all pass through gate (cfg.Options, if set, keep every other
// engine option).
func newGatedService(t *testing.T, gate *runGate, cfg Config) *Service {
	t.Helper()
	opts := bfs.Default(1)
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	opts.StepHook = gate.stepHook
	cfg.Options = &opts
	cfg.Injector = gate
	cfg.CacheEntries = -1
	s := newTestService(t, testGraph(t), cfg)
	// Registered after the service's own cleanup, so it runs first: no
	// failing test leaves a run parked under Shutdown.
	t.Cleanup(gate.open)
	return s
}

// sched is one graph's scheduler state as the tests assert on it.
type sched struct {
	running  int
	sweeping bool
	pending  []uint32
}

func schedOf(s *Service, graph string) (st sched, gs *graphState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gs = s.graphs[graph]
	st = sched{running: gs.running, sweeping: gs.sweeping}
	for _, f := range gs.pending {
		st.pending = append(st.pending, f.source)
	}
	return st, gs
}

func (a sched) equal(b sched) bool {
	return a.running == b.running && a.sweeping == b.sweeping && slices.Equal(a.pending, b.pending)
}

// waitSched polls until graph g's scheduler state equals want. Every
// scheduling decision is taken under Service.mu at the event that causes
// it, so once the state matches nothing further happens until the test
// causes the next event.
func waitSched(t *testing.T, s *Service, want sched) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := schedOf(s, "g")
		if got.equal(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler state = %+v, want %+v", got, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// asyncQuery submits one query and delivers its outcome on the returned
// channel.
type outcome struct {
	resp *Response
	err  error
}

func asyncQuery(s *Service, ctx context.Context, source uint32) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		resp, err := s.Query(ctx, Request{Graph: "g", Source: source})
		ch <- outcome{resp, err}
	}()
	return ch
}

func mustFinish(t *testing.T, what string, ch <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return outcome{}
	}
}

// TestSchedHeadOfLine: with two engine slots, a query that arrives while
// another source's run is held open is served on the second engine and
// returns before the first run is released. The round dispatcher queued
// it behind the whole round.
func TestSchedHeadOfLine(t *testing.T) {
	gate := newRunGate(1)
	s := newGatedService(t, gate, Config{PoolSize: 2, BatchThreshold: 100})
	a := asyncQuery(s, context.Background(), 1)
	gate.await(t) // A's run is parked inside its engine

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Query(ctx, Request{Graph: "g", Source: 2}); err != nil {
		t.Fatalf("B queued behind A's run with an engine slot idle: %v", err)
	}
	select {
	case o := <-a:
		t.Fatalf("A returned while its run was held open: %+v", o)
	default:
	}
	waitSched(t, s, sched{running: 1}) // B's slot is back; A keeps its own
	st := s.Stats()
	if st.EnginesBusy["g"] != 1 || st.QueueWaits != 2 {
		t.Errorf("engines_busy = %d, queue_waits = %d, want 1 and 2", st.EnginesBusy["g"], st.QueueWaits)
	}
	gate.open()
	if o := mustFinish(t, "A", a); o.err != nil {
		t.Fatalf("A: %v", o.err)
	}
	waitSched(t, s, sched{})
}

// TestSchedSlotsAndSweepExclusion walks the scheduler through every
// decision with all runs parked: at most PoolSize singles run; a queue
// that reaches BatchThreshold while the slots are busy starts no further
// single, waits for the running ones and runs as ONE sweep of the
// queue's head in FIFO order; nothing overlaps the sweep; the leftover
// tail then runs as singles.
func TestSchedSlotsAndSweepExclusion(t *testing.T) {
	gate := newRunGate(parkAll)
	s := newGatedService(t, gate, Config{PoolSize: 2, BatchThreshold: 4, MaxBatch: 5})
	results := make(map[uint32]<-chan outcome)
	submit := func(src uint32, want sched) {
		t.Helper()
		results[src] = asyncQuery(s, context.Background(), src)
		waitSched(t, s, want)
	}
	// Two slots fill; the third waits for one.
	submit(1, sched{running: 1})
	submit(2, sched{running: 2})
	submit(3, sched{running: 2, pending: []uint32{3}})
	for i := 0; i < 2; i++ {
		if kind := gate.await(t); kind != "single" {
			t.Fatalf("run %d parked as %q, want single", i, kind)
		}
	}
	// The queue grows to 7 > BatchThreshold while both slots are busy.
	for src := uint32(4); src <= 9; src++ {
		queue := make([]uint32, 0, 7)
		for q := uint32(3); q <= src; q++ {
			queue = append(queue, q)
		}
		submit(src, sched{running: 2, pending: queue})
	}
	// One single finishes: a slot is free, but the queue is waiting to
	// sweep, so nothing starts.
	gate.admit(t)
	waitSched(t, s, sched{running: 1, pending: []uint32{3, 4, 5, 6, 7, 8, 9}})
	// The last single finishes: the head MaxBatch flights run as one
	// sweep, alone; the tail (below the threshold) does not start beside it.
	gate.admit(t)
	waitSched(t, s, sched{sweeping: true, pending: []uint32{8, 9}})
	if kind := gate.await(t); kind != "sweep" {
		t.Fatalf("parked as %q, want sweep", kind)
	}
	submit(10, sched{sweeping: true, pending: []uint32{8, 9, 10}})
	if n := len(gate.entered); n != 0 {
		t.Fatalf("%d runs started beside the sweep", n)
	}
	// The sweep finishes: the three leftovers are below the threshold
	// and take the two slots in FIFO order.
	gate.admit(t)
	waitSched(t, s, sched{running: 2, pending: []uint32{10}})
	gate.open()
	for src, ch := range results {
		o := mustFinish(t, "query", ch)
		if o.err != nil {
			t.Fatalf("source %d: %v", src, o.err)
		}
		if want := src >= 3 && src <= 7; o.resp.Batched != want {
			t.Errorf("source %d: batched = %v, want %v (the sweep is the queue's head, FIFO)", src, o.resp.Batched, want)
		}
	}
	waitSched(t, s, sched{})
	st := s.Stats()
	if st.Sweeps != 1 || st.BatchedQueries != 5 || st.EngineRuns != 5 {
		t.Errorf("sweeps %d, batched %d, engine runs %d; want 1, 5, 5", st.Sweeps, st.BatchedQueries, st.EngineRuns)
	}
	if st.QueueWaits != 10 || st.QueueWaitNs <= 0 {
		t.Errorf("queue_waits = %d, queue_wait_ns = %d; want 10 and > 0", st.QueueWaits, st.QueueWaitNs)
	}
	if _, gs := schedOf(s, "g"); gs.pool.Created() > 2 {
		t.Errorf("pool built %d engines for 2 slots", gs.pool.Created())
	}
}

// sweepBehindSlots drives one sweep deterministically on a two-slot
// service whose gate parks the first two runs: sources[0] and sources[1]
// take the slots and park, the rest queue behind them in order (the
// queue passes BatchThreshold while every slot is busy), and once both
// singles finish the queue's head runs as one sweep. It returns every
// query's outcome, in sources order; each asks for all depths.
func sweepBehindSlots(t *testing.T, s *Service, gate *runGate, sources []uint32) []outcome {
	t.Helper()
	chans := make([]<-chan outcome, len(sources))
	for i, src := range sources {
		ch := make(chan outcome, 1)
		chans[i] = ch
		go func() {
			resp, err := s.Query(context.Background(), Request{Graph: "g", Source: src, AllDepths: true})
			ch <- outcome{resp, err}
		}()
		if i < 2 {
			waitSched(t, s, sched{running: i + 1})
		} else {
			waitSched(t, s, sched{running: 2, pending: sources[2 : i+1]})
		}
	}
	for i := 0; i < 2; i++ {
		if kind := gate.await(t); kind != "single" {
			t.Fatalf("run %d parked as %q, want single", i, kind)
		}
	}
	gate.admit(t)
	gate.admit(t)
	out := make([]outcome, len(sources))
	for i, ch := range chans {
		out[i] = mustFinish(t, "query", ch)
	}
	return out
}

// schedProbe checks the exclusion invariant from inside every run,
// through the two hooks runGate parks at but without parking: a single
// at its first engine step must see no sweep running, and a sweep at the
// sweep.run site must see no single running.
type schedProbe struct {
	t *testing.T
	s *Service
}

func (p *schedProbe) stepHook(step int) {
	if step != 1 {
		return
	}
	if st, _ := schedOf(p.s, "g"); st.sweeping {
		p.t.Errorf("a single ran beside a sweep: %+v", st)
	}
}

func (p *schedProbe) Decide(site faultinject.Site, key uint64) faultinject.Decision {
	if site != faultinject.SiteSweep {
		return faultinject.Decision{}
	}
	if st, _ := schedOf(p.s, "g"); st.running > 0 {
		p.t.Errorf("a sweep started beside %d singles", st.running)
	}
	return faultinject.Decision{}
}

// TestSchedBatchedShareUnderLoad: eight closed-loop callers over distinct
// sources are all answered, each by exactly one run, and no single ever
// runs beside a sweep. How much of the load batches depends on arrival
// timing (one P versus several), so the share is reported, not asserted;
// TestSchedDecide and TestSchedSlotsAndSweepExclusion pin the decisions.
func TestSchedBatchedShareUnderLoad(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(14, 8), 7)
	if err != nil {
		t.Fatal(err)
	}
	probe := &schedProbe{t: t}
	opts := bfs.Default(1)
	opts.StepHook = probe.stepHook
	s := New(Config{CacheEntries: -1, Options: &opts, Injector: probe})
	probe.s = s
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	const callers, perCaller = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < perCaller; q++ {
				src := uint32((c*perCaller + q) * 37 % g.NumVertices())
				if _, err := s.Query(context.Background(), Request{Graph: "g", Source: src}); err != nil {
					t.Errorf("caller %d query %d: %v", c, q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	share := float64(st.BatchedQueries) / float64(st.BatchedQueries+st.EngineRuns)
	t.Logf("batched_share %.2f: %d sweeps, %d lanes, %d engine runs, mean queue wait %v",
		share, st.Sweeps, st.BatchedQueries, st.EngineRuns, time.Duration(st.QueueWaitNs/max(st.QueueWaits, 1)))
	// The sources are distinct and the cache is off: one run per query.
	const queries = callers * perCaller
	if st.EngineRuns+st.BatchedQueries != queries || st.QueueWaits != queries || st.Coalesced != 0 {
		t.Errorf("engine runs %d + batched %d, queue waits %d, coalesced %d; want %d, %d, 0",
			st.EngineRuns, st.BatchedQueries, st.QueueWaits, st.Coalesced, queries, queries)
	}
}

// TestSchedDecide pins every branch of the scheduler's choice.
func TestSchedDecide(t *testing.T) {
	for _, c := range []struct {
		name                                     string
		queued, width, threshold, running, slots int
		sweeping                                 bool
		k                                        int
		sweep                                    bool
	}{
		{name: "empty queue", queued: 0, width: 64, threshold: 4, slots: 2},
		{name: "a sweep running", queued: 10, width: 64, threshold: 4, slots: 2, sweeping: true},
		{name: "sweep waits for a running single", queued: 5, width: 64, threshold: 4, running: 1, slots: 2},
		{name: "sweep with no single running", queued: 5, width: 64, threshold: 4, slots: 2, k: 5, sweep: true},
		{name: "below threshold, slot free", queued: 3, width: 64, threshold: 4, running: 1, slots: 2, k: 1},
		{name: "below threshold, every slot busy", queued: 3, width: 64, threshold: 4, running: 2, slots: 2},
		{name: "one flight at threshold 1 is a single", queued: 1, width: 64, threshold: 1, slots: 2, k: 1},
		{name: "width below threshold never sweeps", queued: 10, width: 3, threshold: 4, slots: 2, k: 1},
		{name: "queue beyond width sweeps width", queued: 70, width: 64, threshold: 4, slots: 2, k: 64, sweep: true},
	} {
		k, sweep := decide(c.queued, c.width, c.threshold, c.running, c.slots, c.sweeping)
		if k != c.k || sweep != c.sweep {
			t.Errorf("%s: decide(queued %d, width %d, threshold %d, running %d, slots %d, sweeping %v) = (%d, %v), want (%d, %v)",
				c.name, c.queued, c.width, c.threshold, c.running, c.slots, c.sweeping, k, sweep, c.k, c.sweep)
		}
	}
}

// TestSchedDeadlineIsPerFlight: a flight whose run outlives its caller's
// deadline times out alone; the flight beside it, started while the slow
// one was still running, succeeds.
func TestSchedDeadlineIsPerFlight(t *testing.T) {
	gate := newRunGate(1)
	s := newGatedService(t, gate, Config{PoolSize: 2, BatchThreshold: 100, WatchdogMult: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	a := asyncQuery(s, ctx, 1)
	gate.await(t)
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 2}); err != nil {
		t.Fatalf("B, beside a slow flight: %v", err)
	}
	if o := mustFinish(t, "A", a); !errors.Is(o.err, context.DeadlineExceeded) {
		t.Fatalf("A: err = %v, want its own deadline", o.err)
	}
	// A's run is still parked past its deadline and keeps its slot; the
	// other one keeps serving.
	waitSched(t, s, sched{running: 1})
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 3}); err != nil {
		t.Fatalf("C, after A expired: %v", err)
	}
	gate.open()
	waitSched(t, s, sched{}) // the run sees its dead context and unwinds
	if st := s.Stats(); st.Expired != 1 || st.EngineRuns != 3 {
		t.Errorf("expired %d, engine runs %d; want 1 and 3", st.Expired, st.EngineRuns)
	}
}

// TestSchedWatchdogIsPerFlight: the watchdog kills the one wedged run and
// releases its waiter; the flight beside it is not touched, and the
// wedged run's slot stays taken until it really unwinds.
func TestSchedWatchdogIsPerFlight(t *testing.T) {
	gate := newRunGate(1)
	s := newGatedService(t, gate, Config{
		PoolSize:       2,
		BatchThreshold: 100,
		DefaultTimeout: 100 * time.Millisecond, // watchdog budget of deadline-less queries
		WatchdogMult:   2,
	})
	a := asyncQuery(s, context.Background(), 1)
	gate.await(t)
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 2}); err != nil {
		t.Fatalf("B, beside a wedged flight: %v", err)
	}
	if o := mustFinish(t, "A", a); !errors.Is(o.err, ErrWatchdog) {
		t.Fatalf("A: err = %v, want ErrWatchdog", o.err)
	}
	waitSched(t, s, sched{running: 1})
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 3}); err != nil {
		t.Fatalf("C, after the watchdog fired: %v", err)
	}
	waitSched(t, s, sched{running: 1}) // C's slot is back; the wedged run keeps its own
	if st := s.Stats(); st.WatchdogFired != 1 || st.EnginesBusy["g"] != 1 {
		t.Errorf("watchdog_fired %d, engines_busy %d; want 1 and 1", st.WatchdogFired, st.EnginesBusy["g"])
	}
	gate.open()
	waitSched(t, s, sched{})
}

// TestSchedDrainWaitsForRunningSingles: BeginDrain rejects new queries
// but Shutdown does not return while a single is still running, and the
// admitted query completes normally.
func TestSchedDrainWaitsForRunningSingles(t *testing.T) {
	gate := newRunGate(parkAll)
	s := newGatedService(t, gate, Config{PoolSize: 2, BatchThreshold: 100})
	a := asyncQuery(s, context.Background(), 1)
	b := asyncQuery(s, context.Background(), 2)
	gate.await(t)
	gate.await(t)
	down := make(chan error, 1)
	go func() { down <- s.Shutdown(context.Background()) }()
	for !s.Draining() {
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 3}); !errors.Is(err, ErrDraining) {
		t.Fatalf("query while draining: err = %v, want ErrDraining", err)
	}
	gate.admit(t)
	waitSched(t, s, sched{running: 1})
	select {
	case err := <-down:
		t.Fatalf("Shutdown returned (%v) with a single still running", err)
	default:
	}
	gate.admit(t)
	select {
	case err := <-down:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the last run finished")
	}
	for name, ch := range map[string]<-chan outcome{"A": a, "B": b} {
		if o := mustFinish(t, name, ch); o.err != nil {
			t.Errorf("%s, admitted before the drain: %v", name, o.err)
		}
	}
}

// TestSchedEvictionSkipsRunningGraph: a graph whose only flight was
// force-resolved by the watchdog has an empty flight table but a run
// still inside its engine; the resident-budget evictor must not take it
// until that run has unwound.
func TestSchedEvictionSkipsRunningGraph(t *testing.T) {
	gate := newRunGate(1)
	g := testGraph(t)
	s := newGatedService(t, gate, Config{
		BatchThreshold:   100,
		DefaultTimeout:   20 * time.Millisecond,
		WatchdogMult:     1,
		MaxResidentBytes: graphResidentBytes(g) * 3 / 2,
	})
	a := asyncQuery(s, context.Background(), 1)
	gate.await(t)
	if o := mustFinish(t, "A", a); !errors.Is(o.err, ErrWatchdog) {
		t.Fatalf("A: err = %v, want ErrWatchdog", o.err)
	}
	if _, gs := schedOf(s, "g"); len(gs.flights) != 0 || gs.running != 1 {
		t.Fatalf("flights %d, running %d; want 0 and 1", len(gs.flights), gs.running)
	}
	if err := s.AddGraph("h", g); !errors.Is(err, ErrResidentBudget) {
		t.Fatalf("load over budget with the only other graph mid-run: err = %v, want ErrResidentBudget", err)
	}
	gate.open()
	waitSched(t, s, sched{})
	if err := s.AddGraph("h", g); err != nil {
		t.Fatalf("load once the run unwound: %v", err)
	}
	if st := s.Stats(); st.GraphEvictions != 1 {
		t.Errorf("graph_evictions = %d, want 1", st.GraphEvictions)
	}
}
