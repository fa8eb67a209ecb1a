// Package serve is the fastbfs traversal query service: it holds graphs
// resident in memory and answers many concurrent BFS queries over them,
// which is what turns the paper's single-shot engine into something that
// can sit behind heavy traffic.
//
// The layering, top to bottom:
//
//   - Admission control. Every query passes a service-wide bounded
//     queue; when it is full the service sheds the oldest queued flight
//     whose sojourn exceeded the CoDel-style target (its waiters get
//     ErrShed) to admit the newcomer, and only tail-drops with
//     ErrOverloaded when the whole queue is fresh. After BeginDrain new
//     queries get ErrDraining (HTTP 503) while admitted ones complete.
//     Each query carries a deadline; an in-flight traversal past its
//     deadline is cancelled through the engine's RunContext, and a
//     waiter whose context dies while its flight is still queued
//     releases its admission ticket immediately.
//   - Containment. Each graph has a circuit breaker: consecutive
//     engine-side failures (panics, watchdog kills, injected faults)
//     open it, failing queries fast with a typed 503 + Retry-After
//     until a cooldown admits a half-open probe. A traversal that
//     panics mid-run is recovered, its waiters get a typed error, and
//     the poisoned engine is quarantined (retired from the pool and
//     lazily rebuilt). A watchdog hard-cancels any run that overruns
//     a wall-clock multiple of its deadline budget so waiters never
//     hang on a wedged traversal.
//   - Result cache + singleflight. Completed traversals are kept in a
//     bounded per-graph LRU keyed by source (engine options are fixed
//     per service, so (graph, source, options) reduces to (graph,
//     source)); concurrent queries for the same source coalesce onto
//     one in-flight traversal.
//   - Slot scheduler. Each graph has PoolSize engine slots and a FIFO
//     queue. A queued flight starts the moment a slot is free, under
//     its own context, deadline and watchdog; its completion frees the
//     slot and starts the next (no dispatcher goroutine, no rounds).
//     Once the queue holds BatchThreshold distinct sources no further
//     single starts, and when the running ones finish its head runs as
//     ONE bit-parallel multi-source sweep (internal/msbfs, up to 64
//     sources) with nothing beside it. decide (sched.go) makes each
//     choice from counts alone, so batching is load-adaptive: arrivals
//     accumulate while every slot is busy or a sweep runs.
//   - Engine pool. Per graph, a LIFO stack of up to PoolSize reusable
//     bfs.Engines (lazily built); the pool relies on the bfs package's
//     documented engine-reuse contract and ErrEngineBusy guard.
//   - Graph lifecycle. Graphs can be loaded and unloaded while serving
//     (atomic pointer swap; see lifecycle.go), under a resident-bytes
//     budget that evicts idle graphs LRU-first. /readyz reflects
//     breaker, drain and loading state.
//
// Every layer is observable to fault injection: a deterministic
// faultinject.Injector (Config.Injector) can delay, fail or crash the
// query path at named sites — see chaos.go. Production services leave
// it nil and pay one branch per site.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/index"
	"fastbfs/internal/faultinject"
	"fastbfs/internal/msbfs"
	"fastbfs/internal/par"
	"fastbfs/tune"
)

// Service errors, mapped onto HTTP statuses by the handler in http.go.
var (
	// ErrOverloaded rejects a query because the admission queue is full
	// of flights younger than the shed target (tail drop).
	ErrOverloaded = errors.New("serve: overloaded: admission queue full")
	// ErrShed fails a queued query that was dropped oldest-first when
	// the admission queue filled while it had already waited past the
	// CoDel-style sojourn target.
	ErrShed = errors.New("serve: shed: queue sojourn exceeded target under overload")
	// ErrDraining rejects a query because the service is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownGraph rejects a query naming a graph that is not loaded.
	ErrUnknownGraph = errors.New("serve: unknown graph")
	// ErrBadRequest rejects a malformed query (e.g. source out of range).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrWatchdog fails every waiter of a run (a single or a sweep) that
	// overran the hard wall-clock multiple of its deadline budget.
	ErrWatchdog = errors.New("serve: watchdog: traversal exceeded hard deadline")
	// ErrEngineFault is the sentinel matched by *EngineFaultError.
	ErrEngineFault = errors.New("serve: engine fault")
)

// EngineFaultError fails a query whose traversal died mid-run (a panic
// inside the engine or the sweep). The offending engine, if any, was
// quarantined: retired from its pool and replaced lazily by a fresh
// build on a later acquire.
type EngineFaultError struct {
	Graph string
	Err   error
}

func (e *EngineFaultError) Error() string {
	return fmt.Sprintf("serve: graph %q: traversal died mid-run (engine quarantined): %v", e.Graph, e.Err)
}

// Unwrap exposes the recovered panic (usually a *par.PanicError).
func (e *EngineFaultError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrEngineFault) true for engine faults.
func (e *EngineFaultError) Is(target error) bool { return target == ErrEngineFault }

// Config tunes a Service. The zero value gets sensible defaults.
type Config struct {
	// PoolSize is the number of reusable engines per graph (default 2).
	PoolSize int
	// MaxQueue bounds admitted-but-unresolved traversals service-wide;
	// beyond it queries fail with ErrOverloaded (default 256).
	MaxQueue int
	// MaxBatch caps sources per multi-source sweep (default and max
	// msbfs.MaxLanes = 64).
	MaxBatch int
	// BatchThreshold is the minimum number of queued sources that run as
	// one bit-parallel sweep instead of per-source engines (default 4).
	BatchThreshold int
	// CacheEntries is the per-graph LRU capacity in traversals (each
	// entry holds an 8-byte word per vertex). Default 32; negative
	// disables caching.
	CacheEntries int
	// DefaultTimeout bounds queries that arrive without a deadline
	// (default 5s).
	DefaultTimeout time.Duration
	// Workers is the parallelism of batched sweeps (default GOMAXPROCS).
	Workers int
	// Options configures the per-source engines; nil means
	// bfs.Default(1). Options.Hybrid also switches batched sweeps to
	// the direction-optimizing msbfs kernel, reusing the same cached
	// per-graph transpose as the engines.
	Options *bfs.Options

	// BreakerThreshold is the consecutive engine-side failures (panics,
	// watchdog kills, injected faults — never caller-budget expiries)
	// that open a graph's circuit breaker (default 5; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects queries with
	// a typed 503 before admitting one half-open probe (default 1s).
	BreakerCooldown time.Duration
	// WatchdogMult hard-cancels a run still going after WatchdogMult ×
	// its deadline budget (the flight's deadline — a sweep's latest —
	// or DefaultTimeout when it has none) and releases its waiters with
	// ErrWatchdog (default 4; negative disables).
	WatchdogMult int
	// ShedTarget is the CoDel-style sojourn target: when the admission
	// queue is full AND the oldest queued flight has waited longer than
	// this, that flight is shed (ErrShed) to admit the newcomer,
	// bounding queue latency instead of tail-dropping fresh work.
	// Default 500ms; negative disables shedding (pure tail drop).
	ShedTarget time.Duration
	// MaxResidentBytes bounds the summed graph payload (CSR arrays)
	// held resident. A load that would exceed it evicts idle graphs
	// LRU-first and fails with ErrResidentBudget if still over.
	// 0 means unlimited. Mapped and heap graphs both count; /stats
	// breaks the total into resident_mapped_bytes (reclaimable page
	// cache) versus heap.
	MaxResidentBytes int64
	// StateDir, when non-empty, makes the control plane durable: every
	// acknowledged admin mutation (load, unload, budget eviction) is
	// journaled there before it is acknowledged, and Recover replays
	// the journal at startup to restore the exact pre-crash serving
	// table. Empty (the default) is the stateless mode: a restart
	// forgets every loaded graph. A service built with StateDir set is
	// not Ready and rejects durable loads until Recover has run.
	StateDir string
	// SnapshotEvery compacts the journal into a snapshot after this
	// many appended records (default DefaultSnapshotEvery).
	SnapshotEvery int
	// MmapLoads makes LoadGraph map graph files read-only instead of
	// decoding them onto the heap, unless the request says otherwise.
	// Mapped loads verify the same CRC footer and traverse to byte-
	// identical results; warm restarts are bounded by page cache.
	MmapLoads bool
	// ScrubInterval, when positive, runs the background integrity
	// scrubber: every interval each resident graph and index artifact is
	// re-hashed against its on-disk CRC32 footer (for mmap'd artifacts
	// the resident arrays alias the file, so disk bit rot is visible; for
	// heap artifacts the walk catches in-memory rot). A mismatch
	// quarantines the graph (its breaker is forced open, reported by
	// /readyz) and the scrubber auto-remounts it from disk — or, for a
	// corrupt index, drops the labeling back to exact-BFS fallback and
	// triggers a rebuild with the journaled parameters. Zero (the
	// default) disables scrubbing.
	ScrubInterval time.Duration
	// ScrubRate bounds the scrubber's hash throughput in bytes/sec so
	// the re-verify walk stays low-priority next to query serving.
	// Default 256 MiB/s; negative disables the rate limit.
	ScrubRate int64
	// AutoTune calibrates a tuning profile for every graph entering the
	// serving table (see the tune package): a short model-driven pass
	// picks the VIS variant, hybrid α/β, prefetch distance, batched
	// binning and MS-BFS lane width per graph, and the profile is
	// journaled with the graph in durable mode so restarts reuse it
	// without re-calibrating. Per-load requests can override with
	// "tune":false. Off by default.
	AutoTune bool
	// Logf, when set, receives daemon-level notices (calibration
	// outcomes, journaled-profile reuse). nil discards them.
	Logf func(format string, args ...any)
	// Injector enables deterministic fault injection at the serving
	// stack's chaos sites (see chaos.go and internal/faultinject).
	// nil — the production value — disables every site.
	Injector faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 || c.MaxBatch > msbfs.MaxLanes {
		c.MaxBatch = msbfs.MaxLanes
	}
	if c.BatchThreshold <= 0 {
		c.BatchThreshold = 4
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.WatchdogMult == 0 {
		c.WatchdogMult = 4
	}
	if c.ShedTarget == 0 {
		c.ShedTarget = 500 * time.Millisecond
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.ScrubRate == 0 {
		c.ScrubRate = 256 << 20
	}
	return c
}

// Service answers BFS queries over a set of resident graphs.
type Service struct {
	cfg  Config
	opts bfs.Options

	baseCtx    context.Context // cancelled only at hard shutdown
	baseCancel context.CancelFunc

	inj     faultinject.Injector
	seq     faultinject.Sequencer
	loading atomic.Int32 // graph loads in progress (for /readyz)

	// Durable control plane (nil manifest in stateless mode).
	recovering  atomic.Bool  // true from New until Recover completes
	recoveryDur atomic.Int64 // wall nanos the last Recover took

	// drained is closed by BeginDrain; background loops (the integrity
	// scrubber) select on it so a graceful Shutdown's wg.Wait returns
	// without needing the hard baseCancel.
	drained chan struct{}

	mu             sync.Mutex
	manifest       *Manifest
	graphs         map[string]*graphState
	queued         int   // flights admitted and not yet resolved
	resident       int64 // summed graph payload bytes
	residentMapped int64 // portion of resident backed by file mappings
	draining       bool
	wg             sync.WaitGroup // unresolved flights + their runs, background loops

	stats stats
}

// graphState is one resident graph plus its pool, cache, breaker and
// scheduler state. The scheduler fields at the bottom and lastUsed are
// guarded by Service.mu.
type graphState struct {
	name     string
	g        *graph.Graph
	path     string // source file; "" for graphs added in-process
	pool     *EnginePool
	cache    *lruCache
	breaker  *breaker
	resident int64
	mapped   bool // resident bytes alias a read-only file mapping

	// Tuning state (see tuning.go). profile is the graph's serving
	// profile (nil = untuned, pure service defaults); opts is the
	// service options with the profile applied — the pool and the
	// batched sweeps both run on it, so single-source and multi-source
	// paths agree on every knob. batchWidth clamps sweeps to the tuned
	// MS-BFS lane count. qEdges/qNanos accumulate traversed
	// edges and busy nanos across completed traversals; their quotient
	// is the measured MTEPS /stats reports next to the prediction.
	profile    *tune.Profile
	opts       bfs.Options
	batchWidth int
	qEdges     atomic.Int64
	qNanos     atomic.Int64

	// Distance-oracle tier (see index.go). idx is the serving pointer —
	// the query fast path reads it lock-free; hit/fallback counters are
	// atomics for the same reason. The remaining idx* fields are guarded
	// by Service.mu.
	idx          atomic.Pointer[index.Index]
	idxHits      atomic.Int64
	idxFallbacks atomic.Int64
	idxState     string // "" (none), IndexBuilding, IndexReady, IndexFailed
	idxErr       string
	idxSpec      *IndexSpec
	idxCancel    context.CancelFunc
	idxResident  int64
	idxMapped    bool // idxResident aliases a read-only file mapping

	// Integrity-scrub state (guarded by Service.mu): quarantined means
	// the scrubber found a checksum mismatch and forced the breaker open;
	// scrubErr is the mismatch detail for /readyz.
	scrubQuarantined bool
	scrubErr         string

	lastUsed time.Time
	flights  map[uint32]*flight // in-flight + queued, by source
	pending  []*flight          // queued, FIFO
	running  int                // single-source runs, each holding one of the pool's slots
	sweeping bool               // a multi-source sweep is running, alone
}

// flight is one traversal that one or more queries wait on. All fields
// below done are guarded by Service.mu until resolved.
type flight struct {
	source   uint32
	enqueued time.Time
	deadline time.Time // max over attached waiters; zero = none
	done     chan struct{}

	waiters  int  // attached callers still waiting
	started  bool // handed to a run by the scheduler; past shedding
	resolved bool // outcome published; resolve is idempotent
	probe    bool // this flight is its breaker's half-open probe

	tr  *Traversal
	err error
}

// New builds an empty service; add graphs with AddGraph or LoadGraph.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	opts := bfs.Default(1)
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		drained:    make(chan struct{}),
		graphs:     make(map[string]*graphState),
	}
	if cfg.StateDir != "" {
		// Not ready (and durable loads rejected) until Recover replays
		// the journal; see lifecycle.go.
		s.recovering.Store(true)
	}
	if cfg.Injector != nil {
		s.inj = cfg.Injector
		prev := s.opts.StepHook
		s.opts.StepHook = func(step int) {
			if prev != nil {
				prev(step)
			}
			s.chaosStepHook(step)
		}
	}
	if cfg.ScrubInterval > 0 {
		s.wg.Add(1)
		go s.scrubLoop()
	}
	return s
}

// AddGraph makes g queryable under name. The graph must not be mutated
// afterwards; it is shared by every engine and sweep. Adding a name
// that already exists fails — use LoadGraph for atomic replacement.
func (s *Service) AddGraph(name string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("%w: empty graph name", ErrBadRequest)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("serve: graph %q: %w", name, err)
	}
	prof := s.maybeCalibrate(name, g, nil) // before the lock: pure CPU work
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerGraphLocked(name, g, false, "", nil, prof)
}

// registerGraphLocked installs g under name, enforcing the resident-
// bytes budget (evicting idle graphs LRU-first). With replace it
// atomically swaps an existing entry: queries admitted against the old
// state complete on the old graph; new queries see the new one. A
// non-nil spec makes the mutation durable: the journal record is
// written and fsync'd BEFORE the serving table changes, so a crash at
// any point either recovers the old table or the new one, never an
// acknowledged-then-forgotten load. A non-nil prof is the graph's
// tuning profile: the engine pool is built with it applied, and the
// scheduler clamps sweeps to its lane width.
func (s *Service) registerGraphLocked(name string, g *graph.Graph, replace bool, path string, spec *GraphSpec, prof *tune.Profile) error {
	if s.draining {
		return ErrDraining
	}
	resident := graphResidentBytes(g)
	old := s.graphs[name]
	if old != nil && !replace {
		return fmt.Errorf("serve: graph %q already loaded", name)
	}
	var oldResident int64
	if old != nil {
		oldResident = old.resident
	}
	if budget := s.cfg.MaxResidentBytes; budget > 0 {
		for s.resident-oldResident+resident > budget {
			if !s.evictOneLocked(name) {
				return fmt.Errorf("%w: graph %q needs %d bytes but %d of %d budget are resident and nothing is idle",
					ErrResidentBudget, name, resident, s.resident, budget)
			}
		}
	}
	if spec != nil && s.manifest != nil {
		if err := s.manifest.AppendLoad(*spec); err != nil {
			return err // evictions above were journaled; the table is untouched
		}
	}
	if old != nil {
		s.retireLocked(old)
	}
	mapped := g.MappedBytes() > 0
	s.resident += resident
	if mapped {
		s.residentMapped += resident
	}
	opts := prof.Apply(s.opts) // nil profile is the identity
	batchWidth := s.cfg.MaxBatch
	if prof != nil && prof.BatchWidth > 0 && prof.BatchWidth < batchWidth {
		batchWidth = prof.BatchWidth
	}
	s.graphs[name] = &graphState{
		name:       name,
		g:          g,
		path:       path,
		pool:       NewEnginePool(g, opts, s.cfg.PoolSize),
		cache:      newLRUCache(s.cfg.CacheEntries),
		breaker:    newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown),
		resident:   resident,
		mapped:     mapped,
		profile:    prof,
		opts:       opts,
		batchWidth: batchWidth,
		lastUsed:   time.Now(),
		flights:    make(map[uint32]*flight),
	}
	return nil
}

// retireLocked releases what the service holds on behalf of a graph
// leaving the serving table (unload, eviction or replacement): its
// resident-bytes accounting and the process-wide cached transpose that
// bfs.InAdjacency pins per graph identity. In-flight queries keep the
// detached *graphState alive until their flights resolve; a mapped
// graph's file mapping is likewise finalizer-released only once nothing
// references it.
func (s *Service) retireLocked(gs *graphState) {
	s.resident -= gs.resident
	if gs.mapped {
		s.residentMapped -= gs.resident
	}
	s.resident -= gs.idxResident
	if gs.idxMapped {
		s.residentMapped -= gs.idxResident
	}
	gs.idxResident, gs.idxMapped = 0, false
	if gs.idxCancel != nil {
		gs.idxCancel() // abort an in-flight index build for this snapshot
	}
	bfs.ReleaseInAdjacency(gs.g)
}

// evictOneLocked drops the least-recently-used idle graph (no queued or
// running flights, not the one named exclude) to free resident bytes.
// In durable mode the eviction is journaled first; an eviction that
// cannot be made durable does not happen (the caller's load then fails
// on budget rather than silently diverging from the journal).
func (s *Service) evictOneLocked(exclude string) bool {
	var victim *graphState
	for _, gs := range s.graphs {
		if gs.name == exclude || len(gs.flights) > 0 || gs.running > 0 || gs.sweeping {
			continue // a watchdog-resolved flight may still be inside its engine
		}
		if victim == nil || gs.lastUsed.Before(victim.lastUsed) {
			victim = gs
		}
	}
	if victim == nil {
		return false
	}
	if s.manifest != nil && s.manifest.Contains(victim.name) {
		if err := s.manifest.AppendUnload(victim.name); err != nil {
			return false
		}
	}
	delete(s.graphs, victim.name)
	s.retireLocked(victim)
	s.stats.graphEvictions.Add(1)
	return true
}

// GraphInfo describes one resident graph.
type GraphInfo struct {
	Name          string `json:"name"`
	Vertices      int    `json:"vertices"`
	Edges         int64  `json:"edges"`
	ResidentBytes int64  `json:"resident_bytes"`
	// Mapped reports that ResidentBytes alias a read-only file mapping
	// (page cache) rather than heap.
	Mapped  bool   `json:"mapped,omitempty"`
	Breaker string `json:"breaker"`
	// Index is the graph's distance-oracle state: none, building, ready
	// or failed (see IndexStatus for detail).
	Index string `json:"index,omitempty"`
}

// Graphs lists the resident graphs.
func (s *Service) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, gs := range s.graphs {
		state, _ := gs.breaker.snapshot()
		out = append(out, GraphInfo{
			Name:          gs.name,
			Vertices:      gs.g.NumVertices(),
			Edges:         gs.g.NumEdges(),
			ResidentBytes: gs.resident,
			Mapped:        gs.mapped,
			Breaker:       state,
			Index:         indexStateName(gs.idxState),
		})
	}
	return out
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth reports admitted-but-unresolved traversals (for tests and
// /stats).
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// ResidentBytes reports the summed resident graph payload.
func (s *Service) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// BeginDrain stops admitting queries; already-admitted flights complete.
// In-flight index builds are cancelled — a build's result could not be
// mounted into a draining table anyway.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drained) // wake background loops so Shutdown's wait returns
	}
	for _, gs := range s.graphs {
		if gs.idxCancel != nil {
			gs.idxCancel()
		}
	}
	s.mu.Unlock()
}

// Shutdown drains gracefully: no new queries, wait for in-flight
// traversals. If ctx expires first, outstanding traversals are hard-
// cancelled (their waiters get context errors) and Shutdown returns
// ctx.Err() once they unwind.
func (s *Service) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Every journal append was fsync'd at mutation time; Close only
	// releases the handle.
	s.mu.Lock()
	if s.manifest != nil {
		_ = s.manifest.Close()
	}
	s.mu.Unlock()
	return err
}

// Query answers one request, blocking until the result, the caller's
// ctx deadline, or a rejection. Safe for arbitrary concurrency.
func (s *Service) Query(ctx context.Context, req Request) (*Response, error) {
	s.stats.requests.Add(1)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		return nil, ErrDraining
	}
	gs := s.graphs[req.Graph]
	var quarantined bool
	if gs != nil {
		gs.lastUsed = time.Now()
		quarantined = gs.scrubQuarantined
	}
	s.mu.Unlock()
	if gs == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, req.Graph)
	}
	if err := req.validate(gs.g); err != nil {
		return nil, err
	}

	// A quarantined graph answers nothing, not even from the oracle or
	// the cache: both were built from resident bytes that may have been
	// rotten for up to one scrub interval before detection. Falling
	// through to the flight path yields the breaker's typed rejection.
	if !quarantined {
		// Distance-only queries try the landmark oracle first: a
		// certified answer costs two label merge-joins per target
		// instead of any traversal at all. Uncertified answers fall
		// through to the exact BFS path below (cache, then flight).
		if req.DistanceOnly {
			if resp := s.answerFromIndex(gs, req); resp != nil {
				return resp, nil
			}
		}

		// A hit skips the breaker unless its half-open probe is due: then
		// it runs as a real flight, or all-hit traffic would never reclose.
		if tr, ok := gs.cache.get(req.Source); ok && !gs.breaker.probeDue() {
			s.stats.cacheHits.Add(1)
			return buildResponse(gs, req, tr, true)
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		return nil, ErrDraining
	}
	f := gs.flights[req.Source]
	if f == nil {
		ok, probe, retry := gs.breaker.allow()
		if !ok {
			s.mu.Unlock()
			s.stats.breakerRejected.Add(1)
			s.stats.rejected.Add(1)
			return nil, &BreakerOpenError{Graph: gs.name, RetryAfter: retry}
		}
		if s.queued >= s.cfg.MaxQueue && !s.shedOldestLocked() {
			gs.breaker.onNeutral(probe) // the probe slot was never used
			s.mu.Unlock()
			s.stats.rejected.Add(1)
			return nil, ErrOverloaded
		}
		f = &flight{
			source:   req.Source,
			enqueued: time.Now(),
			done:     make(chan struct{}),
			waiters:  1,
			probe:    probe,
		}
		f.deadline, _ = ctx.Deadline()
		gs.flights[req.Source] = f
		gs.pending = append(gs.pending, f)
		s.queued++
		s.wg.Add(1) // released when the flight's run ends, or it resolves still queued
		s.scheduleLocked(gs)
	} else {
		s.stats.coalesced.Add(1)
		f.waiters++
		// Extend the flight's deadline to cover this waiter too; the
		// scheduler reads it under s.mu when the flight starts, so the
		// extension holds for flights still queued.
		if dl, ok := ctx.Deadline(); !f.deadline.IsZero() && (!ok || dl.After(f.deadline)) {
			if ok {
				f.deadline = dl
			} else {
				f.deadline = time.Time{}
			}
		}
	}
	s.mu.Unlock()

	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		return buildResponse(gs, req, f.tr, false)
	case <-ctx.Done():
		// This caller gives up. If it was the flight's last waiter and
		// the flight is still queued, the admission ticket is released
		// immediately (no traversal runs for an audience of zero);
		// otherwise the flight keeps running for the other waiters.
		s.abandon(gs, f)
		s.stats.expired.Add(1)
		return nil, ctx.Err()
	}
}

// abandon detaches one waiter whose context died. A queued flight whose
// last waiter leaves is resolved on the spot, releasing its ticket and
// its place in the queue.
func (s *Service) abandon(gs *graphState, f *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.resolved {
		return
	}
	f.waiters--
	if f.waiters > 0 || f.started {
		return
	}
	gs.pending = slices.DeleteFunc(gs.pending, func(p *flight) bool { return p == f })
	s.stats.abandoned.Add(1)
	s.resolveLocked(gs, f, nil, context.Canceled)
	s.scheduleLocked(gs) // a shorter queue may no longer be waiting to sweep
}

// shedOldestLocked implements the CoDel-style drop decision: find the
// oldest queued (not yet started) flight service-wide and, if its
// sojourn exceeds ShedTarget, resolve it with ErrShed to make room.
// Returns whether a slot was freed.
func (s *Service) shedOldestLocked() bool {
	if s.cfg.ShedTarget < 0 {
		return false
	}
	var (
		oldest   *flight
		oldestGS *graphState
	)
	for _, gs := range s.graphs {
		if len(gs.pending) == 0 {
			continue
		}
		if f := gs.pending[0]; oldest == nil || f.enqueued.Before(oldest.enqueued) {
			oldest, oldestGS = f, gs
		}
	}
	if oldest == nil || time.Since(oldest.enqueued) <= s.cfg.ShedTarget {
		return false
	}
	oldestGS.pending = oldestGS.pending[1:]
	s.stats.shed.Add(1)
	s.resolveLocked(oldestGS, oldest, nil, ErrShed)
	return true
}

// scheduleLocked is the whole scheduler: it starts whatever gs.pending
// and the free engine slots allow, called under s.mu from the events that
// can change that — a flight enqueued or abandoned, a run finished. decide
// (sched.go) makes each choice from counts; this loop carries it out,
// taking the queue's head FIFO.
func (s *Service) scheduleLocked(gs *graphState) {
	now := time.Now()
	for {
		k, sweep := decide(len(gs.pending), gs.batchWidth, s.cfg.BatchThreshold, gs.running, gs.pool.Size(), gs.sweeping)
		if k == 0 {
			return
		}
		if sweep {
			gs.sweeping = true
		} else {
			gs.running++
		}
		run := append([]*flight(nil), gs.pending[:k]...)
		clear(gs.pending[:k])
		gs.pending = gs.pending[k:]
		// The run lasts until its last waiter's deadline (zero = none),
		// read under the lock: coalescing waiters extend queued flights.
		deadline := run[0].deadline
		for _, f := range run {
			f.started = true
			s.stats.queueWaitNs.Add(int64(now.Sub(f.enqueued)))
			if !deadline.IsZero() && (f.deadline.IsZero() || f.deadline.After(deadline)) {
				deadline = f.deadline
			}
		}
		s.stats.queueWaits.Add(int64(k))
		go s.run(gs, run, sweep, deadline)
	}
}

// run executes one scheduling decision — a single on a pooled engine or
// a sweep — under its own context and watchdog, then frees the slot and
// reschedules. A run that overruns a hard multiple of its budget is
// cancelled AND force-resolved, so waiters never hang on a wedged
// traversal (resolve is idempotent: a late outcome is dropped); the slot
// stays taken until the run really unwinds.
func (s *Service) run(gs *graphState, run []*flight, sweep bool, deadline time.Time) {
	var ctx context.Context
	var cancel context.CancelFunc
	budget := s.cfg.DefaultTimeout
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.baseCtx)
	} else {
		ctx, cancel = context.WithDeadline(s.baseCtx, deadline)
		if d := time.Until(deadline); d > 0 {
			budget = d
		}
	}
	var wd *time.Timer
	if mult := s.cfg.WatchdogMult; mult > 0 {
		wd = time.AfterFunc(time.Duration(mult)*budget, func() {
			cancel()
			s.stats.watchdogFired.Add(1)
			s.resolve(gs, run, nil, fmt.Errorf("%w (budget %v × %d)", ErrWatchdog, budget, mult))
		})
	}
	if sweep {
		s.runBatched(gs, ctx, run)
	} else {
		s.runSingle(gs, ctx, run)
	}
	if wd != nil {
		wd.Stop()
	}
	cancel()
	s.mu.Lock()
	if sweep {
		gs.sweeping = false
	} else {
		gs.running--
	}
	s.scheduleLocked(gs)
	s.mu.Unlock()
	s.wg.Add(-len(run))
}

// runBatched serves run as a single bit-parallel sweep. When the
// service's engine options request hybrid traversal, the sweep is
// direction-optimizing too: it shares the per-graph cached transpose
// with the pooled engines (bfs.InAdjacency), so daemon-side batched
// queries get the same bottom-up win as single-source ones. A panic
// anywhere in the sweep (injected or real) fails the run with a typed
// engine fault instead of killing the daemon.
func (s *Service) runBatched(gs *graphState, ctx context.Context, run []*flight) {
	sources := make([]uint32, len(run))
	for i, f := range run {
		sources[i] = f.source
	}
	var res *msbfs.Result
	err := guarded(func() (err error) {
		if err := s.chaosSweep(); err != nil {
			return fmt.Errorf("serve: sweep: %w", err)
		}
		// gs.opts — the service options with the graph's tuning profile
		// applied — so batched sweeps honor the per-graph hybrid choice.
		if gs.opts.Hybrid {
			var in *graph.Graph
			if !gs.opts.Symmetric {
				in = bfs.InAdjacency(gs.g)
			}
			res, err = msbfs.RunHybridContext(ctx, gs.g, in, sources, s.cfg.Workers)
		} else {
			res, err = msbfs.RunContext(ctx, gs.g, sources, s.cfg.Workers)
		}
		return err
	})
	if err != nil {
		s.resolve(gs, run, nil, err)
		return
	}
	s.stats.sweeps.Add(1)
	s.stats.batchedQueries.Add(int64(len(run)))
	// Measured-throughput accounting: LaneEdges is the aggregate-TEPS
	// numerator (what independent per-source runs would have traversed),
	// so the quotient stays comparable with the model's prediction.
	gs.qEdges.Add(res.LaneEdges)
	gs.qNanos.Add(int64(res.Elapsed))
	perLane := res.Elapsed / time.Duration(len(run))
	// Each lane is answered as soon as its own traversal is summarized:
	// the first callers are on their way back while the last lanes are
	// still being counted, and find the queue before the next decision.
	for k := range run {
		s.resolve(gs, run[k:k+1], newLaneTraversal(res, k, perLane), nil)
	}
}

// runSingle serves a one-flight run on a pooled engine; the scheduler
// has already counted it against the pool's slots, so the acquire never
// waits. An engine whose run dies mid-traversal is quarantined:
// discarded from the pool (a later acquire builds a fresh one) while
// its waiters get a typed engine fault.
func (s *Service) runSingle(gs *graphState, ctx context.Context, run []*flight) {
	if err := s.chaosAcquire(); err != nil {
		s.resolve(gs, run, nil, fmt.Errorf("serve: acquiring engine: %w", err))
		return
	}
	e, err := gs.pool.Acquire()
	if err != nil {
		s.resolve(gs, run, nil, err)
		return
	}
	s.stats.engineRuns.Add(1)
	var r *bfs.Result
	err = guarded(func() (err error) { r, err = e.RunContext(ctx, run[0].source); return })
	var tr *Traversal
	if err == nil {
		tr = newEngineTraversal(r) // copies out of engine storage: before Release
		gs.qEdges.Add(r.EdgesTraversed)
		gs.qNanos.Add(int64(r.Elapsed))
	}
	if poisoned(err) {
		gs.pool.Discard(e)
		s.stats.enginesRetired.Add(1)
	} else {
		gs.pool.Release(e)
	}
	s.resolve(gs, run, tr, err)
}

// guarded runs one traversal or sweep, converting any panic that unwinds
// into this goroutine into a *par.PanicError. (Panics inside the
// engine's own workers — including injected StepHook crashes — are
// already recovered by par.Run and arrive as wrapped errors.)
func guarded(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &par.PanicError{Worker: -1, Value: rec, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// poisoned reports whether err carries a recovered panic — the signal
// that the engine's internal state died mid-run and it must be
// quarantined rather than returned to its pool.
func poisoned(err error) bool {
	var pe *par.PanicError
	return errors.As(err, &pe)
}

// resolve publishes one outcome for every flight in run (a single's, one
// sweep lane's, or a whole run's failure): it caches a successful
// traversal, then resolves under Service.mu. An error that carries a
// recovered panic is typed as the graph's engine fault.
func (s *Service) resolve(gs *graphState, run []*flight, tr *Traversal, err error) {
	if poisoned(err) {
		s.stats.panicsRecovered.Add(1)
		err = &EngineFaultError{Graph: gs.name, Err: err}
	}
	if err == nil {
		for _, f := range run {
			gs.cache.put(f.source, tr) // before the flight leaves the table
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range run {
		s.resolveLocked(gs, f, tr, err)
	}
}

// resolveLocked publishes a flight's outcome under Service.mu: it
// retires the flight from the singleflight table and admission queue
// and feeds the graph's circuit breaker. It is idempotent — the first
// caller (run, watchdog, shedder or abandoner) wins.
func (s *Service) resolveLocked(gs *graphState, f *flight, tr *Traversal, err error) {
	if f.resolved {
		return
	}
	f.resolved = true
	if !f.started {
		s.wg.Done() // shed or abandoned in the queue: no run will release it
	}
	if cur := gs.flights[f.source]; cur == f {
		delete(gs.flights, f.source)
	}
	s.queued--
	switch classify(err) {
	case outcomeSuccess:
		gs.breaker.onSuccess(f.probe)
	case outcomeFailure:
		gs.breaker.onFailure(f.probe)
	default:
		gs.breaker.onNeutral(f.probe)
	}
	f.tr, f.err = tr, err
	close(f.done)
}

// Flight outcomes as the circuit breaker sees them.
const (
	outcomeSuccess = iota
	outcomeFailure
	outcomeNeutral
)

// classify sorts a flight error into breaker outcomes: engine-side
// failures count against the graph; caller-budget expiries, shedding
// and drains say nothing about engine health.
func classify(err error) int {
	switch {
	case err == nil:
		return outcomeSuccess
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrShed),
		errors.Is(err, ErrDraining):
		return outcomeNeutral
	default:
		return outcomeFailure
	}
}
