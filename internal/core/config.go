// Package core implements the paper's BFS traversal engine: the
// atomic-free cache-resident VIS protocol (§III-A), the two-phase
// Potential-Boundary-Vertex traversal with socket-aware and load-balanced
// work division (§III-B), frontier rearrangement for TLB locality, and
// the baselines the paper compares against (no-VIS, atomic bitmap,
// single-phase).
package core

import (
	"fmt"

	"fastbfs/graph"
	"fastbfs/internal/bitmap"
	"fastbfs/internal/par"
	"fastbfs/internal/pbv"
)

// VISKind selects the visited-structure variant (Figure 4 of the paper).
type VISKind int

// VIS variants.
const (
	// VISNone checks the DP array directly per neighbor (the paper's
	// first baseline scheme).
	VISNone VISKind = iota
	// VISAtomicBit is a bit per vertex updated with CAS — the Agarwal et
	// al. baseline ("A. Vis").
	VISAtomicBit
	// VISByte is a byte per vertex with atomic-free updates.
	VISByte
	// VISBit is a bit per vertex with atomic-free updates, unpartitioned.
	VISBit
	// VISPartitioned is the paper's scheme: atomic-free bits with the
	// vertex range partitioned so each partition's slice stays
	// cache-resident (N_VIS from the configured LLC size).
	VISPartitioned
)

// String names the VIS kind as in Figure 4's legend.
func (k VISKind) String() string {
	switch k {
	case VISNone:
		return "no-VIS"
	case VISAtomicBit:
		return "atomic-bit"
	case VISByte:
		return "AF-byte"
	case VISBit:
		return "AF-bit"
	case VISPartitioned:
		return "AF-partitioned"
	}
	return "?"
}

// Direction labels how one BFS level expanded the frontier: top-down
// (the paper's Phase-I/II machinery) or bottom-up (each unvisited vertex
// scans its in-neighbors for a frontier parent, Beamer-style).
type Direction uint8

// Level directions.
const (
	DirTopDown Direction = iota
	DirBottomUp
)

// String renders the direction as one letter ("T"/"B") — the compact
// per-level trace format.
func (d Direction) String() string {
	if d == DirBottomUp {
		return "B"
	}
	return "T"
}

// DirectionString renders a per-level direction slice, e.g. "TTBBBT".
func DirectionString(dirs []Direction) string {
	b := make([]byte, len(dirs))
	for i, d := range dirs {
		b[i] = d.String()[0]
	}
	return string(b)
}

// Direction-switch defaults (Beamer et al.'s α/β, as adopted by GAP).
const (
	DefaultAlpha = 15.0
	DefaultBeta  = 18.0
)

// Scheme selects the multi-socket work-distribution strategy
// (Figure 5 of the paper).
type Scheme int

// Work-distribution schemes.
const (
	// SchemeSinglePhase performs no multi-socket optimization: one phase,
	// spatially incoherent VIS/DP updates from every socket.
	SchemeSinglePhase Scheme = iota
	// SchemeSocketAware bins neighbors in Phase-I and statically assigns
	// each socket its own bins: zero cross-socket VIS/DP traffic, but
	// load imbalance when bins fill unevenly.
	SchemeSocketAware
	// SchemeLoadBalanced is the paper's scheme: bins are divided so every
	// socket processes an equal number of PBV entries, sharing at most
	// two boundary bins per division point.
	SchemeLoadBalanced
)

// String names the scheme as in Figure 5's legend.
func (s Scheme) String() string {
	switch s {
	case SchemeSinglePhase:
		return "no-ms-opt"
	case SchemeSocketAware:
		return "ms-aware"
	case SchemeLoadBalanced:
		return "ms-load-balanced"
	}
	return "?"
}

// Config controls an Engine. The zero value is completed by defaults:
// one simulated socket, all available workers, the paper's VIS and
// load-balanced scheme, rearrangement on, Nehalem-like cache geometry.
type Config struct {
	// Workers is the number of goroutines in the traversal pool.
	Workers int
	// Sockets is the number of simulated sockets (power of two). Workers
	// are divided into contiguous per-socket groups.
	Sockets int
	// VIS selects the visited-structure variant.
	VIS VISKind
	// Scheme selects the multi-socket work distribution.
	Scheme Scheme
	// Rearrange enables the TLB rearrangement of the next frontier.
	Rearrange bool
	// BatchBinning computes Phase-I bin indices in blocks of eight — the
	// scalar analogue of the paper's SSE binning.
	BatchBinning bool
	// Encoding selects the PBV entry encoding; EncodingAuto follows the
	// paper's footnote-4 heuristic.
	Encoding pbv.Encoding
	// PrefetchDist is the software-prefetch lookahead (entries ahead in
	// the frontier whose offsets are touched early); 0 disables.
	PrefetchDist int
	// CacheBytes is the (simulated) LLC capacity driving N_VIS.
	CacheBytes int64
	// L2Bytes is the per-core L2 size, used by the analytical model.
	L2Bytes int64
	// PageBytes and TLBEntries drive the rearrangement region size.
	PageBytes  int64
	TLBEntries int
	// Instrument enables per-step metrics and socket-traffic accounting.
	Instrument bool
	// MaxSteps bounds the step loop as a safety net; 0 means |V|+1.
	MaxSteps int

	// Hybrid enables direction-optimizing traversal: levels whose
	// frontier out-edge sum m_f exceeds m_u/Alpha (m_u = edges not yet
	// explored top-down) run bottom-up, returning top-down once the
	// frontier shrinks below |V|/Beta (Beamer's heuristic).
	Hybrid bool
	// Alpha is the top-down→bottom-up switch threshold divisor; larger
	// switches earlier (+Inf forces bottom-up from level 2, a value
	// near 0 never switches). <= 0 means DefaultAlpha.
	Alpha float64
	// Beta is the bottom-up→top-down return divisor; the engine stays
	// bottom-up while the frontier holds more than |V|/Beta vertices or
	// keeps growing. <= 0 means DefaultBeta.
	Beta float64
	// InAdj supplies the in-adjacency graph for bottom-up scans of a
	// directed graph; it is invoked at most once, on the first switch to
	// bottom-up. nil asserts the graph is symmetric (the graph itself
	// serves as its own in-adjacency).
	InAdj func() *graph.Graph
	// StepHook, when non-nil, is invoked by the coordinating worker once
	// per completed traversal step, inside the same exclusive window
	// that checks the run context (so it is ordered against every other
	// worker by the step barriers; levels on the serial fast path invoke
	// it from the one goroutine running them). It exists for the
	// fault-injection harness: a hook may sleep (slow-traversal
	// injection) or panic (mid-run crash injection; the panic poisons the
	// step barrier and is recovered by the parallel runtime, surfacing as
	// an error from Run). Leave nil in production.
	StepHook func(step int)
}

// DefaultConfig returns the paper's best configuration for the given
// number of simulated sockets.
func DefaultConfig(sockets int) Config {
	return Config{
		Sockets:      sockets,
		VIS:          VISPartitioned,
		Scheme:       SchemeLoadBalanced,
		Rearrange:    true,
		BatchBinning: true,
		PrefetchDist: 8,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = par.DefaultWorkers()
	}
	if c.Sockets == 0 {
		c.Sockets = 1
	}
	if c.Workers < c.Sockets {
		c.Workers = c.Sockets
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 8 << 20
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 256 << 10
	}
	if c.PageBytes == 0 {
		c.PageBytes = 4096
	}
	if c.TLBEntries == 0 {
		c.TLBEntries = 64
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Beta <= 0 {
		c.Beta = DefaultBeta
	}
	return c
}

// validate rejects impossible configurations.
func (c Config) validate(g *graph.Graph) error {
	if c.Sockets < 1 || c.Sockets&(c.Sockets-1) != 0 {
		return fmt.Errorf("core: sockets must be a power of two, got %d", c.Sockets)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: workers must be >= 1, got %d", c.Workers)
	}
	if g.NumVertices() == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if g.NumVertices() > graph.MaxVertices {
		return fmt.Errorf("core: graph exceeds MaxVertices")
	}
	if c.VIS < VISNone || c.VIS > VISPartitioned {
		return fmt.Errorf("core: unknown VIS kind %d", c.VIS)
	}
	if c.Scheme < SchemeSinglePhase || c.Scheme > SchemeLoadBalanced {
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	}
	return nil
}

// derived geometry: bins and partitions (paper §III-C(1)).
type geometry struct {
	nVIS      int  // cache partitions of the VIS structure
	extraBits uint // log2(bins per socket)
	binShift  uint // bin(v) = v >> binShift
	nPBV      int  // total bins = Sockets << extraBits
}

func deriveGeometry(numVertices int, cfg Config, vnsShift uint) geometry {
	nVIS := 1
	if cfg.VIS == VISPartitioned {
		nVIS = bitmap.Partitions(numVertices, cfg.CacheBytes)
	}
	extra := uint(bitmap.Log2(bitmap.NextPow2(nVIS)))
	if extra > vnsShift {
		extra = vnsShift
	}
	return geometry{
		nVIS:      nVIS,
		extraBits: extra,
		binShift:  vnsShift - extra,
		nPBV:      cfg.Sockets << extra,
	}
}
