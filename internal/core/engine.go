package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fastbfs/graph"
	"fastbfs/internal/bitmap"
	"fastbfs/internal/frontier"
	"fastbfs/internal/numa"
	"fastbfs/internal/par"
	"fastbfs/internal/pbv"
	"fastbfs/internal/trace"
)

// INF is the depth/parent word of an unvisited vertex.
const INF = ^uint64(0)

// PackDP packs a parent id and depth into one DP word (parent high,
// depth low) — the paper stores depth and parent together so one store
// claims the vertex.
func PackDP(parent, depth uint32) uint64 { return uint64(parent)<<32 | uint64(depth) }

// workerState is the per-worker slice of the traversal state. Fields are
// only touched by the owning worker during a phase; worker 0 aggregates
// the metric fields between barriers.
type workerState struct {
	id     int
	socket int

	bins       *pbv.Set
	lastParent []uint32 // per bin: last parent written (marker encoding)
	rearr      *frontier.Rearranger

	fsegs []frontier.Segment
	psegs []pbv.Segment

	// Step-local metrics.
	edges   int64
	appends int64
	nextDeg int64 // out-degree sum of vertices this worker claimed (m_f)
	traffic *numa.Traffic

	sink uint64 // prefetch sink; defeats dead-code elimination
}

// Engine runs BFS traversals over one graph with one configuration.
// It retains all large buffers across Run calls so repeated traversals
// (the benchmark pattern: five roots per graph) do not reallocate.
// An Engine must not be used from multiple goroutines at once, and the
// Result of a Run aliases engine storage that the next Run overwrites.
type Engine struct {
	g    *graph.Graph
	cfg  Config
	topo *numa.Topology
	geo  geometry
	enc  pbv.Encoding // resolved from cfg.Encoding for this graph

	// twoPhase is resolved from the scheme and the geometry, like enc:
	// top-down cohort levels bin neighbours into PBV arrays (Phase-I)
	// and update VIS/DP from the bins (Phase-II) only when there is more
	// than one bin to sort them into, N_PBV = N_S·N_VIS > 1 (paper
	// §III-B). With one bin Phase-II would read back exactly what
	// Phase-I wrote, so the level expands in one pass (direct).
	twoPhase bool

	dp        []uint64
	visBit    *bitmap.Bitmap
	visByte   *bitmap.ByteMap
	visAtomic *bitmap.AtomicBitmap

	cur, nxt *frontier.Frontier
	ws       []*workerState
	bar      *par.Barrier

	// serialBelow, when not negative, overrides the per-level work bound
	// of the small-frontier fast path, which levelBound otherwise
	// resolves each level. A field so in-package tests can force the
	// path off (0), always on (MaxInt64) or onto one shipped bound.
	serialBelow int64
	// procs and own are levelBound's inputs: the processors this run may
	// use, and how many of the goroutines par.Running counts are this
	// engine's (1 in the serial prologue, Workers in the cohort).
	procs, own int

	// Hybrid (direction-optimizing) state, allocated when cfg.Hybrid.
	// in is the in-adjacency used by bottom-up scans; it is resolved
	// lazily on the first switch and cached for the Engine's lifetime,
	// so repeated Runs (the serve pool pattern) pay the transpose once;
	// noIn is derived from it at the same moment and cached alongside.
	in       *graph.Graph
	noIn     []uint32       // per vertex of in: no in-neighbors (see noInMask)
	frontBit *bitmap.Bitmap // dense frontier bitmap (bottom-up levels)
	nextBit  *bitmap.Bitmap // dense next-frontier bitmap (bottom-up levels)

	// ctx is the context of the Run in progress. Worker 0 polls it
	// between phase barriers so cancellation aborts within one step.
	ctx context.Context

	// Shared step state, written by worker 0 between barriers; the
	// barrier's atomics provide the happens-before edges.
	curLayout   frontier.Layout
	p2Layout    *pbv.Layout
	curDeg      int64 // out-degree sum of e.cur (m_f; duplicates count twice)
	stop        bool
	err         error
	steps       int
	totEdges    int64
	totApps     int64
	runTrace    *trace.RunTrace
	stepTraffic *numa.Traffic
	stepMark    time.Time // level start; kept only when instrumented

	// Hybrid step state (also worker-0-written between barriers).
	dir       Direction   // direction of the step in progress
	dirs      []Direction // per-level directions of the run
	buConvert bool        // pending array→bitmap frontier conversion
	muEdges   int64       // m_u: edges not yet examined top-down
	awake     int64       // current frontier size (n_f)
}

// New builds an Engine for g with cfg (defaults applied).
func New(g *graph.Graph, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	topo, err := numa.NewTopology(n, cfg.Sockets, cfg.Workers)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g:    g,
		cfg:  cfg,
		topo: topo,
		geo:  deriveGeometry(n, cfg, topo.VNSShift()),
		dp:   make([]uint64, n),
		cur:  frontier.New(cfg.Workers),
		nxt:  frontier.New(cfg.Workers),
		bar:  par.NewBarrier(cfg.Workers),

		serialBelow: -1,
	}
	switch cfg.VIS {
	case VISAtomicBit:
		e.visAtomic = bitmap.NewAtomicBitmap(n)
	case VISByte:
		e.visByte = bitmap.NewByteMap(n)
	case VISBit, VISPartitioned:
		e.visBit = bitmap.NewBitmap(n)
	}
	if cfg.Hybrid {
		e.frontBit = bitmap.NewBitmap(n)
		e.nextBit = bitmap.NewBitmap(n)
	}
	avgDeg := 0.0
	if n > 0 {
		avgDeg = float64(g.NumEdges()) / float64(n)
	}
	e.enc = cfg.Encoding.Choose(e.geo.nPBV, avgDeg)
	e.twoPhase = cfg.Scheme != SchemeSinglePhase && e.geo.nPBV > 1

	shift, regions := frontier.RegionShift(n, 4*g.NumEdges(), cfg.PageBytes, cfg.TLBEntries)
	e.ws = make([]*workerState, cfg.Workers)
	for w := range e.ws {
		st := &workerState{
			id:         w,
			socket:     topo.SocketOf(w),
			bins:       pbv.NewSet(e.geo.nPBV),
			lastParent: make([]uint32, e.geo.nPBV),
		}
		if cfg.Rearrange {
			st.rearr = frontier.NewRearranger(shift, regions)
		}
		if cfg.Instrument {
			st.traffic = numa.NewTraffic(cfg.Sockets)
		}
		e.ws[w] = st
	}
	return e, nil
}

// Geometry exposes the derived bin/partition parameters for reporting:
// N_VIS cache partitions and N_PBV bins.
func (e *Engine) Geometry() (nVIS, nPBV int) { return e.geo.nVIS, e.geo.nPBV }

// Result reports one traversal. DP aliases engine storage valid until
// the next Run.
type Result struct {
	Source uint32
	// DP holds the packed parent/depth word per vertex; INF = unvisited.
	DP []uint64
	// Steps is the number of frontier expansions (the graph depth D).
	Steps int
	// EdgesTraversed counts adjacency entries examined (the TEPS
	// numerator, work-based as in the paper).
	EdgesTraversed int64
	// Visited is the number of vertices assigned a depth (|V'|).
	Visited int64
	// Appends counts next-frontier insertions; Appends-Visited is the
	// benign-race duplicate work (paper: <=0.2%).
	Appends int64
	Elapsed time.Duration
	// Trace is non-nil when the engine was configured with Instrument.
	Trace *trace.RunTrace
	// Directions records how each level expanded (hybrid runs only;
	// nil otherwise). Like DP it aliases engine storage valid until the
	// next Run.
	Directions []Direction
}

// Depth returns the BFS depth of v, or -1 if unreached.
func (r *Result) Depth(v uint32) int32 {
	dp := r.DP[v]
	if dp == INF {
		return -1
	}
	return int32(uint32(dp))
}

// Parent returns the BFS parent of v, or -1 if unreached.
func (r *Result) Parent(v uint32) int64 {
	dp := r.DP[v]
	if dp == INF {
		return -1
	}
	return int64(dp >> 32)
}

// MTEPS returns the traversal rate in millions of traversed edges per
// second.
func (r *Result) MTEPS() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / s / 1e6
}

// Run performs a BFS from source.
func (e *Engine) Run(source uint32) (*Result, error) {
	return e.RunContext(context.Background(), source)
}

// RunContext performs a BFS from source under ctx. Worker 0 checks the
// context between phase barriers (and once per level on the serial fast
// path), so cancellation or a deadline aborts the traversal within one
// step and Run returns ctx.Err(). The engine stays reusable after a
// canceled run: the next Run resets all state.
func (e *Engine) RunContext(ctx context.Context, source uint32) (*Result, error) {
	n := e.g.NumVertices()
	if int(source) >= n {
		return nil, fmt.Errorf("core: source %d out of range", source)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // expired before any step started
	}
	e.ctx = ctx
	// Rearm the barrier in case a previous run was aborted by a panic.
	e.bar.Reset()
	// Reset the traversal state.
	if err := par.For(e.cfg.Workers, n, func(lo, hi int) {
		dp := e.dp[lo:hi]
		for i := range dp {
			dp[i] = INF
		}
	}); err != nil {
		return nil, err
	}
	switch {
	case e.visAtomic != nil:
		e.visAtomic.Reset()
	case e.visByte != nil:
		e.visByte.Reset()
	case e.visBit != nil:
		e.visBit.Reset()
	}
	e.cur.Reset()
	e.nxt.Reset()
	e.stop, e.err, e.steps, e.totEdges, e.totApps = false, nil, 0, 0, 0
	e.dir, e.dirs, e.buConvert = DirTopDown, e.dirs[:0], false
	e.muEdges, e.awake = e.g.NumEdges(), 1
	e.runTrace = nil
	if e.cfg.Instrument {
		e.runTrace = &trace.RunTrace{Traffic: numa.NewTraffic(e.cfg.Sockets)}
		if e.stepTraffic == nil {
			e.stepTraffic = numa.NewTraffic(e.cfg.Sockets)
		}
		for _, st := range e.ws {
			st.traffic.Reset()
		}
	}

	e.dp[source] = PackDP(source, 0)
	switch {
	case e.visAtomic != nil:
		e.visAtomic.TrySet(source)
	case e.visByte != nil:
		e.visByte.TrySet(source)
	case e.visBit != nil:
		e.visBit.TrySet(source)
	}
	e.cur.Arrays[0] = append(e.cur.Arrays[0][:0], source)
	e.curDeg = int64(e.g.Offsets[source+1] - e.g.Offsets[source])
	e.totApps = 1 // the seeded source counts as visited work

	start := time.Now()
	// Prologue: the source level is always small, so the run starts on
	// this goroutine (par.Run with one worker spawns nothing and turns a
	// panic into the same *PanicError a cohort worker's would be). A
	// traversal whose every level stays small ends here and never
	// launches the cohort.
	maxSteps := e.stepLimit()
	e.procs = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	e.own = 1
	runErr := par.Run(1, func(int) {
		e.serialLevels(maxSteps)
		if !e.stop {
			e.beginLevel()
		}
	})
	if runErr == nil && !e.stop {
		// A panicking worker poisons the barrier before re-panicking so
		// the surviving workers drain instead of deadlocking; par.Run
		// recovers the panic and returns it as an error.
		e.own = e.cfg.Workers
		runErr = par.Run(e.cfg.Workers, func(w int) {
			defer func() {
				if r := recover(); r != nil {
					e.bar.Break()
					panic(r)
				}
			}()
			e.worker(w, maxSteps)
		})
	}
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, fmt.Errorf("core: traversal aborted: %w", runErr)
	}
	if e.err != nil {
		return nil, e.err
	}

	var visited int64
	var vparts = make([]int64, e.cfg.Workers)
	if err := par.Run(e.cfg.Workers, func(w int) {
		lo, hi := par.Range(n, w, e.cfg.Workers)
		var c int64
		for _, dp := range e.dp[lo:hi] {
			if dp != INF {
				c++
			}
		}
		vparts[w] = c
	}); err != nil {
		return nil, err
	}
	for _, c := range vparts {
		visited += c
	}
	if e.runTrace != nil {
		e.runTrace.Finish()
	}
	res := &Result{
		Source:         source,
		DP:             e.dp,
		Steps:          e.steps,
		EdgesTraversed: e.totEdges,
		Visited:        visited,
		Appends:        e.totApps,
		Elapsed:        elapsed,
		Trace:          e.runTrace,
	}
	if e.cfg.Hybrid {
		res.Directions = e.dirs
	}
	return res, nil
}

// stepLimit resolves cfg.MaxSteps (0 means |V|+1).
func (e *Engine) stepLimit() int {
	if e.cfg.MaxSteps != 0 {
		return e.cfg.MaxSteps
	}
	return e.g.NumVertices() + 1
}

// worker is the per-goroutine step loop (paper Figure 3). A level is
// the direction's expansion, the end-of-level barrier, worker 0's
// exclusive window (finishStep) and the barrier that publishes it. The
// cohort starts on a published level: RunContext built the first one's
// layout before launching it.
//
// The step number and the direction are read from e.steps and e.dir,
// which only worker 0 writes, inside its window: the step is not a local
// counter because finishStep may have run further levels serially, and
// the whole cohort takes the same branch (the branches use different
// barrier counts — divergence would deadlock). The context is polled
// only inside worker 0's windows too: a write to e.stop outside them
// could be seen by some workers and not others.
func (e *Engine) worker(w, maxSteps int) {
	st := e.ws[w]
	for {
		step := uint32(e.steps) + 1
		var m trace.StepMetrics
		var ok bool
		switch {
		case e.dir == DirBottomUp:
			ok = e.bottomUpStep(st, step, &m)
		case e.twoPhase:
			ok = e.twoPhaseStep(st, step, &m)
		default:
			e.direct(st, step)
			e.rearrange(st, &m)
			ok = true
		}
		if !ok || !e.bar.Wait() {
			return
		}
		if w == 0 {
			e.finishStep(step, maxSteps, &m)
		}
		if !e.bar.Wait() || e.stop {
			return
		}
	}
}

// twoPhaseStep is one top-down level of the paper's two-phase scheme:
// Phase-I bins, a barrier, worker 0 lays out the bins, a barrier,
// Phase-II. Returns false when the worker must exit.
func (e *Engine) twoPhaseStep(st *workerState, step uint32, m *trace.StepMetrics) bool {
	e.phase1(st, step)
	if !e.bar.Wait() {
		return false
	}
	if st.id == 0 {
		if err := e.ctx.Err(); err != nil {
			e.err, e.stop = err, true
		} else {
			if e.runTrace != nil {
				m.Phase1 = time.Since(e.stepMark)
				e.stepMark = time.Now()
			}
			e.p2Layout = pbv.BuildLayout(e.cfg.Workers, e.geo.nPBV, func(wk, b int) int {
				return len(e.ws[wk].bins.Bins[b])
			})
		}
	}
	if !e.bar.Wait() || e.stop {
		return false
	}
	e.phase2(st, step)
	e.rearrange(st, m)
	return true
}

// rearrangeMin is the smallest next array a single-phase level
// rearranges. Measured on a 2-vCPU host at W=2, rearranging every level
// against Config.Rearrange off: on the grid's levels of
// BenchmarkSmallLevel, about 500 vertices per worker, it cost 1.5-5 us
// of a 15-25 us level; on its scale-16 R-MAT (arrays up to ~20K) the two
// were within noise; on a scale-20 R-MAT top-down run, levels of 10^5
// vertices and more, it saved 4 % (9.3 against 9.7 ns/edge).
const rearrangeMin = 16 << 10

// rearrange applies the TLB rearrangement to this worker's next array
// (paper §III-B3(b)): on every two-phase level, and on a single-phase
// level when the array holds at least rearrangeMin vertices. The array
// is the worker's own, so it needs no barrier; with a trace, worker 0
// times its own share.
func (e *Engine) rearrange(st *workerState, m *trace.StepMetrics) {
	next := e.nxt.Arrays[st.id]
	if st.rearr == nil || !e.twoPhase && len(next) < rearrangeMin {
		return
	}
	if e.runTrace == nil || st.id != 0 {
		st.rearr.Rearrange(next)
		return
	}
	begin := time.Now()
	st.rearr.Rearrange(next)
	m.Rearr = time.Since(begin)
}

// finishStep closes a cohort level on worker 0 between barriers, runs
// any small levels that follow on this same goroutine, and lays out the
// next cohort level. The other workers are waiting on the barrier that
// publishes this window for the whole call, so the serial levels need no
// barrier of their own and cannot split the cohort: whatever e.stop,
// e.dir, e.steps and e.curLayout they leave behind is published by that
// one barrier exactly as a single level's would be.
func (e *Engine) finishStep(step uint32, maxSteps int, m *trace.StepMetrics) {
	m.Step = int(step)
	if e.runTrace != nil {
		// The level's wall time since the last mark, less worker 0's
		// rearrangement, goes to the phase that ran last.
		tail := time.Since(e.stepMark) - m.Rearr
		if e.dir == DirTopDown && e.twoPhase {
			m.Phase2 = tail
		} else {
			m.Phase1 = tail
		}
	}
	if e.dir == DirTopDown {
		m.Frontier = e.curLayout.Total()
	}
	e.closeLevel(step, maxSteps, m)
	e.serialLevels(maxSteps)
	if !e.stop {
		e.beginLevel()
	}
}

// beginLevel prepares the next cohort level on the goroutine that has
// the engine to itself: the frontier layout a top-down level divides,
// and the level's start mark when tracing.
func (e *Engine) beginLevel() {
	if e.dir == DirTopDown {
		e.curLayout.Build(e.cur)
	}
	if e.runTrace != nil {
		e.stepMark = time.Now()
	}
}

// closeLevel aggregates a level's metrics, swaps frontiers, picks the
// next direction and decides termination. It runs with the engine to
// itself: on worker 0 between barriers, or on the serial fast path.
func (e *Engine) closeLevel(step uint32, maxSteps int, m *trace.StepMetrics) {
	bu := e.dir == DirBottomUp
	binned := !bu && !m.Serial && e.twoPhase
	var deg int64
	for _, st := range e.ws {
		m.Edges += st.edges
		m.NewVertices += st.appends
		deg += st.nextDeg
		if binned {
			m.PBVEntries += st.bins.Entries()
		}
		st.edges, st.appends, st.nextDeg = 0, 0, 0
	}
	e.totEdges += m.Edges
	e.totApps += m.NewVertices
	e.steps = int(step)

	if e.runTrace != nil {
		if binned && e.p2Layout != nil {
			if e.cfg.Scheme == SchemeLoadBalanced {
				m.SharedBins = e.p2Layout.SharedBins(e.cfg.Sockets)
			}
			if total := e.p2Layout.Total(); total > 0 {
				var widest int64
				for s := 0; s < e.cfg.Sockets; s++ {
					lo, hi := e.socketSpan(s)
					if hi-lo > widest {
						widest = hi - lo
					}
				}
				m.MaxSocketShare = float64(widest) / float64(total)
			}
		}
		// Aggregate this step's traffic first: α is per step (the hot
		// socket can alternate between steps, as on the stress graph).
		e.stepTraffic.Reset()
		for _, st := range e.ws {
			e.stepTraffic.Merge(st.traffic)
			st.traffic.Reset()
		}
		m.AlphaAdj = e.stepTraffic.Alpha(numa.StructAdj)
		m.AlphaPBV = e.stepTraffic.Alpha(numa.StructPBV)
		m.AlphaDP = e.stepTraffic.Alpha(numa.StructDP)
		e.runTrace.Traffic.Merge(e.stepTraffic)
		e.runTrace.Add(*m)
	}

	if e.cfg.StepHook != nil {
		// Exclusive window: only worker 0 runs here, between barriers,
		// so a panicking hook unwinds through the same poison-the-
		// barrier path as any other worker-0 crash (in the prologue,
		// through par.Run's recovery directly).
		e.cfg.StepHook(int(step))
	}

	total := e.nxt.Total()
	e.cur, e.nxt = e.nxt, e.cur
	e.nxt.Reset()
	e.curDeg = deg
	if e.cfg.Hybrid {
		e.directionStep(m, total, deg)
		e.awake = total
	}
	if total == 0 {
		e.stop = true
	} else if int(step) >= maxSteps {
		e.stop = true
		e.err = fmt.Errorf("core: step limit %d exceeded (cycle in step accounting?)", maxSteps)
	} else if err := e.ctx.Err(); err != nil {
		e.stop = true
		e.err = err
	}
}
