// Package bfs is the public API of fastbfs: a multi-core, (simulated)
// multi-socket breadth-first search engine reproducing Chhugani et al.,
// "Fast and Efficient Graph Traversal Algorithm for CPUs: Maximizing
// Single-Node Efficiency" (IPDPS 2012).
//
// Quick use:
//
//	g, _ := gen.UniformRandom(1<<20, 16, 1)
//	res, _ := bfs.Run(g, 0, bfs.Options{})
//	fmt.Println(res.MTEPS(), res.Steps)
//
// The engine implements the paper's atomic-free cache-resident VIS
// protocol, two-phase socket-aware traversal with load-balanced bin
// division, and TLB-friendly frontier rearrangement — plus every
// baseline the paper compares against, selected through Options.
//
// # Engine reuse contract
//
// An Engine allocates its VIS/DP/PBV buffers once in NewEngine and
// fully resets them at the start of every Run/RunContext, so one Engine
// may serve any number of traversals from any sources — including after
// a run aborted by context cancellation — and each run's depths are
// identical to those of a freshly constructed engine. Two invariants
// bound the reuse:
//
//   - One traversal at a time. An Engine is NOT safe for concurrent
//     Run/RunContext calls; an overlapping call fails fast with
//     ErrEngineBusy instead of corrupting state. Callers that need
//     concurrency run a pool of engines over the same graph (see the
//     serve package).
//   - Result.DP aliases engine storage. It is valid only until the next
//     Run on the same engine; copy it first if it must outlive the run.
package bfs

import (
	"context"
	"errors"
	"sync"

	"fastbfs/graph"
	"fastbfs/internal/core"
	"fastbfs/internal/pbv"
	"fastbfs/internal/validate"
)

// ErrEngineBusy is returned by Engine.Run/RunContext when another
// traversal is already in progress on the same Engine. The engine is
// unharmed; retry after the in-flight run completes, or use one engine
// per concurrent caller.
var ErrEngineBusy = errors.New("bfs: engine busy: concurrent Run on one Engine")

// VISKind selects the visited-structure variant (paper Figure 4).
type VISKind = core.VISKind

// VIS variants, from the paper's Figure 4 legend.
const (
	// VISNone checks the depth array directly per neighbor.
	VISNone = core.VISNone
	// VISAtomicBit is the CAS bitmap (Agarwal et al. baseline).
	VISAtomicBit = core.VISAtomicBit
	// VISByte is the atomic-free byte-per-vertex structure.
	VISByte = core.VISByte
	// VISBit is the atomic-free bit-per-vertex structure.
	VISBit = core.VISBit
	// VISPartitioned is the paper's cache-resident partitioned bitmap.
	VISPartitioned = core.VISPartitioned
)

// Scheme selects the multi-socket work distribution (paper Figure 5).
type Scheme = core.Scheme

// Work-distribution schemes, from the paper's Figure 5 legend.
const (
	// SchemeSinglePhase has no multi-socket optimization.
	SchemeSinglePhase = core.SchemeSinglePhase
	// SchemeSocketAware statically assigns each socket its own bins.
	SchemeSocketAware = core.SchemeSocketAware
	// SchemeLoadBalanced is the paper's balanced bin division.
	SchemeLoadBalanced = core.SchemeLoadBalanced
)

// Direction labels how a hybrid traversal expanded one level.
type Direction = core.Direction

// Level directions (Result.Directions entries for hybrid runs).
const (
	DirTopDown  = core.DirTopDown
	DirBottomUp = core.DirBottomUp
)

// DirectionString renders a per-level direction slice, e.g. "TTBBT".
func DirectionString(dirs []Direction) string { return core.DirectionString(dirs) }

// Direction-switch defaults (Beamer's α/β as adopted by GAP).
const (
	DefaultAlpha = core.DefaultAlpha
	DefaultBeta  = core.DefaultBeta
)

// Encoding selects the Potential-Boundary-Vertex entry encoding.
type Encoding = pbv.Encoding

// PBV encodings (paper footnote 4). Auto applies the paper's heuristic.
const (
	EncodingAuto   = pbv.EncodingAuto
	EncodingMarker = pbv.EncodingMarker
	EncodingPair   = pbv.EncodingPair
)

// Options configures a traversal. The zero value requests the paper's
// best single-socket configuration on all available cores.
type Options struct {
	// Workers is the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// Sockets is the simulated socket count (power of two); 0 means 1.
	Sockets int
	// VIS selects the visited structure; the zero value is VISNone, so
	// set it explicitly (Default() selects VISPartitioned).
	VIS VISKind
	// Scheme selects the work distribution; zero is SchemeSinglePhase.
	Scheme Scheme
	// Rearrange enables TLB-friendly frontier rearrangement.
	Rearrange bool
	// BatchBinning computes bin indices in blocks (SIMD analogue).
	BatchBinning bool
	// Encoding selects the PBV encoding.
	Encoding Encoding
	// PrefetchDist is the adjacency-prefetch lookahead; 0 disables.
	PrefetchDist int
	// CacheBytes is the simulated LLC size driving VIS partitioning;
	// 0 means 8 MiB (the paper's Nehalem).
	CacheBytes int64
	// L2Bytes is the per-core L2 size; 0 means 256 KiB.
	L2Bytes int64
	// PageBytes and TLBEntries size the rearrangement regions;
	// 0 means 4096 and 64.
	PageBytes  int64
	TLBEntries int
	// Instrument collects per-step metrics and socket-traffic α values.
	Instrument bool
	// MaxSteps bounds the step loop as a safety net; 0 means |V|+1.
	MaxSteps int

	// Hybrid enables direction-optimizing traversal: heavy middle levels
	// run bottom-up (each unvisited vertex scans in-neighbors for a
	// frontier parent), light levels top-down. Result.Directions records
	// the per-level choice. Directed graphs transparently build and cache
	// a transpose on the first switch (see InAdjacency); set Symmetric to
	// skip that when every edge is known to have its reverse.
	Hybrid bool
	// Alpha is the top-down→bottom-up switch divisor (switch when
	// m_f > m_u/α); larger switches earlier. 0 means DefaultAlpha.
	Alpha float64
	// Beta is the bottom-up→top-down return divisor (return when the
	// frontier stops growing and holds < |V|/β vertices). 0 means
	// DefaultBeta.
	Beta float64
	// Symmetric asserts every edge has its reverse, letting hybrid runs
	// use the graph as its own in-adjacency instead of a transpose.
	// Asserting it on a directed graph silently corrupts parents.
	Symmetric bool

	// StepHook, when non-nil, is called once per completed traversal
	// step from the engine's coordinating worker. It exists for the
	// chaos/fault-injection harness (see internal/faultinject and the
	// serve package): a hook may sleep to simulate a slow traversal or
	// panic to simulate a mid-run crash — the panic is recovered by the
	// parallel runtime and surfaces as an error from Run, leaving the
	// engine reusable. Leave nil in production.
	StepHook func(step int)
}

// Default returns the paper's best configuration for the given simulated
// socket count: the knobs core.DefaultConfig sets.
func Default(sockets int) Options {
	c := core.DefaultConfig(sockets)
	return Options{
		Sockets:      c.Sockets,
		VIS:          c.VIS,
		Scheme:       c.Scheme,
		Rearrange:    c.Rearrange,
		BatchBinning: c.BatchBinning,
		PrefetchDist: c.PrefetchDist,
	}
}

func (o Options) config(g *graph.Graph) core.Config {
	cfg := core.Config{
		Workers:      o.Workers,
		Sockets:      o.Sockets,
		VIS:          o.VIS,
		Scheme:       o.Scheme,
		Rearrange:    o.Rearrange,
		BatchBinning: o.BatchBinning,
		Encoding:     o.Encoding,
		PrefetchDist: o.PrefetchDist,
		CacheBytes:   o.CacheBytes,
		L2Bytes:      o.L2Bytes,
		PageBytes:    o.PageBytes,
		TLBEntries:   o.TLBEntries,
		Instrument:   o.Instrument,
		MaxSteps:     o.MaxSteps,
		Hybrid:       o.Hybrid,
		Alpha:        o.Alpha,
		Beta:         o.Beta,
		StepHook:     o.StepHook,
	}
	if o.Hybrid && !o.Symmetric {
		cfg.InAdj = func() *graph.Graph { return InAdjacency(g) }
	}
	return cfg
}

// transposeEntry pairs a once with its built transpose.
type transposeEntry struct {
	once sync.Once
	in   *graph.Graph
}

// transposes caches one in-adjacency per graph identity.
var transposes sync.Map // *graph.Graph -> *transposeEntry

// InAdjacency returns the transpose of g, building it in parallel on
// first use and caching it per graph identity until ReleaseInAdjacency.
// All hybrid engines over the same *graph.Graph — notably a serve pool —
// share one transpose, and concurrent first calls build it exactly once.
//
// The cache keys on graph identity, so it pins both g and its transpose
// until released: long-lived processes that retire graphs (unload, LRU
// eviction, atomic replacement) MUST call ReleaseInAdjacency on the
// outgoing graph or both CSRs stay reachable forever.
func InAdjacency(g *graph.Graph) *graph.Graph {
	v, _ := transposes.LoadOrStore(g, &transposeEntry{})
	e := v.(*transposeEntry)
	e.once.Do(func() { e.in = g.TransposeParallel(0) })
	return e.in
}

// ReleaseInAdjacency drops the cached transpose of g, unpinning g and
// its transpose for the garbage collector. It reports whether an entry
// existed. Callers still holding the transpose pointer may keep using
// it; a later InAdjacency on the same graph simply rebuilds.
func ReleaseInAdjacency(g *graph.Graph) bool {
	_, ok := transposes.LoadAndDelete(g)
	return ok
}

// InAdjacencyCached reports whether a transpose of g is currently
// cached (including one still being built). It exists so lifecycle
// layers can regression-test that retiring a graph released its
// transpose.
func InAdjacencyCached(g *graph.Graph) bool {
	_, ok := transposes.Load(g)
	return ok
}

// Result is a traversal outcome; see core.Result for field semantics.
type Result = core.Result

// Engine runs repeated traversals over one graph without reallocating;
// create one with NewEngine when running many roots (the Graph500 and
// benchmark pattern). See the package doc's "Engine reuse contract" for
// the rules reusers rely on.
type Engine struct {
	mu sync.Mutex // serializes Run/RunContext; TryLock → ErrEngineBusy
	e  *core.Engine
}

// NewEngine prepares an engine for g with the given options.
func NewEngine(g *graph.Graph, o Options) (*Engine, error) {
	e, err := core.New(g, o.config(g))
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// Run traverses from source. The Result's DP slice aliases engine
// storage and is overwritten by the next Run. A concurrent Run on the
// same engine returns ErrEngineBusy.
func (e *Engine) Run(source uint32) (*Result, error) {
	return e.RunContext(context.Background(), source)
}

// RunContext traverses from source under ctx: cancellation or a deadline
// aborts the traversal within one step and returns ctx.Err(). An
// already-expired context returns its error without starting a step. The
// engine remains reusable after an aborted run. A concurrent call while
// another traversal is in flight returns ErrEngineBusy.
func (e *Engine) RunContext(ctx context.Context, source uint32) (*Result, error) {
	if !e.mu.TryLock() {
		return nil, ErrEngineBusy
	}
	defer e.mu.Unlock()
	return e.e.RunContext(ctx, source)
}

// Geometry reports the derived cache-partition and bin counts
// (N_VIS, N_PBV).
func (e *Engine) Geometry() (nVIS, nPBV int) { return e.e.Geometry() }

// Run is the one-shot convenience: build an engine and traverse once.
func Run(g *graph.Graph, source uint32, o Options) (*Result, error) {
	return RunContext(context.Background(), g, source, o)
}

// RunContext is Run under a context; see Engine.RunContext for the
// cancellation semantics.
func RunContext(ctx context.Context, g *graph.Graph, source uint32, o Options) (*Result, error) {
	e, err := NewEngine(g, o)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, source)
}

// RunSerial performs the reference single-threaded traversal.
func RunSerial(g *graph.Graph, source uint32) (*Result, error) {
	return core.SerialBFS(g, source)
}

// RunAsync performs an asynchronous (label-correcting) traversal — the
// barrier-free alternative class the paper contrasts in §I. Depths are
// exact; Result.Appends/Result.Visited measures the redundant-work
// penalty asynchronous schemes pay. workers <= 0 means one.
func RunAsync(g *graph.Graph, source uint32, workers int) (*Result, error) {
	return core.AsyncBFS(g, source, workers)
}

// RunWorkStealing performs a simplified Leiserson-&-Schardl-style
// traversal (dynamic chunk claiming, CAS vertex claims, no VIS filter or
// locality optimization) — the Figure 7 comparator. workers <= 0 means
// one.
func RunWorkStealing(g *graph.Graph, source uint32, workers int) (*Result, error) {
	return core.WorkStealingBFS(g, source, workers)
}

// Validate checks that r is a correct BFS tree for g (Graph500-style
// checks plus exact depth equality with the serial reference).
func Validate(g *graph.Graph, r *Result) error { return validate.Result(g, r) }
