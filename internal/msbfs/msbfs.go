// Package msbfs implements batched multi-source breadth-first search:
// up to 64 traversals of one graph executed as a single bit-parallel
// sweep (MS-BFS, after Then et al., "The More the Merrier: Efficient
// Multi-Source Graph Traversal").
//
// Each source occupies one bit lane of a 64-bit word; per vertex the
// kernel keeps a seen mask (lanes that have visited it) and a visit
// mask (lanes whose current frontier contains it). One scan of an
// active vertex's adjacency list serves every lane whose bit is set, so
// a batch of B sources traverses each shared edge roughly once instead
// of B times — that is where the aggregate-throughput win over running
// B independent engines comes from (cf. Buluç & Madduri on aggregating
// traversal work items into batches).
//
// The sweep is level-synchronous like the single-source engine, so per
// lane the computed depths are exactly those of an independent BFS from
// that lane's source. Lane ownership of discovery is decided by an
// atomic OR on the next-visit word: the worker that transitions a bit
// from 0 to 1 writes that lane's packed parent/depth word, so every
// (vertex, lane) cell has exactly one writer and the kernel is clean
// under the race detector.
package msbfs

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"fastbfs/graph"
	"fastbfs/internal/core"
	"fastbfs/internal/par"
)

// MaxLanes is the largest batch one sweep can carry: one source per bit
// of the per-vertex visited word.
const MaxLanes = 64

// scanChunk is the dynamic work-claiming granularity of the frontier
// scan; small enough to balance RMAT degree skew, large enough that the
// atomic cursor is cold.
const scanChunk = 256

// Result is the outcome of one multi-source sweep.
type Result struct {
	// Sources are the batch sources; lane k traversed from Sources[k].
	Sources []uint32
	// DP holds one packed parent/depth array per lane (core.PackDP
	// layout, core.INF = unvisited). Unlike the single-source engine,
	// these arrays are freshly allocated per sweep and owned by the
	// caller.
	DP [][]uint64
	// Steps is the number of sweep levels (the max depth reached by any
	// lane, plus the final empty-frontier detection level — the same
	// counting as the engine's Result.Steps for the deepest lane).
	Steps int
	// EdgesScanned counts adjacency entries the sweep actually read —
	// the real memory traffic.
	EdgesScanned int64
	// LaneEdges is Σ over lanes of the edges an independent per-source
	// run would have traversed (popcount-weighted scans). It is the
	// aggregate-TEPS numerator comparable against the sum of individual
	// runs; LaneEdges/EdgesScanned is the sharing factor the batch won.
	// Hybrid sweeps weight bottom-up entries by the lanes still seeking
	// a parent when the entry was examined.
	LaneEdges int64
	Elapsed   time.Duration
	// Directions records the per-level expansion choice of a hybrid
	// sweep (RunHybrid*); nil for plain sweeps.
	Directions []core.Direction
}

// Depth returns lane k's BFS depth of v, or -1 if unreached.
func (r *Result) Depth(lane int, v uint32) int32 {
	dp := r.DP[lane][v]
	if dp == core.INF {
		return -1
	}
	return int32(uint32(dp))
}

// ErrDepthOverflow reports a lane whose BFS depth does not fit the
// caller's compact depth encoding (DepthsInto).
var ErrDepthOverflow = errors.New("msbfs: lane depth exceeds encoding range")

// DepthsInto extracts one lane's depth array into dst as compact uint16
// values, writing unreached for unvisited vertices. It is the handoff
// from a sweep's packed parent/depth arrays to consumers that only need
// distances — notably the landmark-labeling index builder, which keeps
// 2-byte distances per (landmark, vertex) pair and releases the 8-byte
// DP arrays as soon as a batch is extracted. Returns the lane's maximum
// reached depth; a depth >= unreached cannot be represented and yields
// ErrDepthOverflow. len(dst) must equal the vertex count of the sweep.
func (r *Result) DepthsInto(lane int, dst []uint16, unreached uint16) (uint32, error) {
	dp := r.DP[lane]
	if len(dst) != len(dp) {
		return 0, fmt.Errorf("msbfs: DepthsInto dst has %d entries, lane has %d", len(dst), len(dp))
	}
	var maxDepth uint32
	for v, x := range dp {
		if x == core.INF {
			dst[v] = unreached
			continue
		}
		d := uint32(x)
		if d >= uint32(unreached) {
			return 0, fmt.Errorf("%w: depth %d at vertex %d (limit %d)", ErrDepthOverflow, d, v, unreached)
		}
		if d > maxDepth {
			maxDepth = d
		}
		dst[v] = uint16(d)
	}
	return maxDepth, nil
}

// workerAcc is one scan worker's private accumulator.
type workerAcc struct {
	touched      []uint32 // vertices this worker first-discovered this level
	edgesScanned int64
	laneEdges    int64
	_            [4]uint64 // pad against false sharing of the counters
}

// RunContext performs one multi-source sweep from sources (1..MaxLanes
// of them; duplicates allowed — duplicate lanes produce identical
// arrays). workers <= 0 means GOMAXPROCS. ctx is checked between levels:
// like the single-source engine, cancellation aborts within one level and
// returns ctx.Err().
func RunContext(ctx context.Context, g *graph.Graph, sources []uint32, workers int) (*Result, error) {
	lanes := len(sources)
	if lanes == 0 {
		return nil, errors.New("msbfs: empty source batch")
	}
	if lanes > MaxLanes {
		return nil, fmt.Errorf("msbfs: %d sources exceeds MaxLanes (%d)", lanes, MaxLanes)
	}
	n := g.NumVertices()
	for k, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("msbfs: source %d (lane %d) out of range", s, k)
		}
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := time.Now()
	seen := make([]uint64, n)
	visit := make([]uint64, n)
	visitNext := make([]uint64, n)
	dp := make([][]uint64, lanes)
	for k := range dp {
		dp[k] = make([]uint64, n)
	}
	if err := par.For(workers, n, func(lo, hi int) {
		for _, lane := range dp {
			s := lane[lo:hi]
			for i := range s {
				s[i] = core.INF
			}
		}
	}); err != nil {
		return nil, err
	}

	frontier := make([]uint32, 0, lanes)
	for k, s := range sources {
		if seen[s] == 0 {
			frontier = append(frontier, s)
		}
		bit := uint64(1) << uint(k)
		seen[s] |= bit
		visit[s] |= bit
		dp[k][s] = core.PackDP(s, 0)
	}

	ws := make([]workerAcc, workers)
	next := make([]uint32, 0, 1024)
	res := &Result{Sources: append([]uint32(nil), sources...), DP: dp}

	for depth := uint32(1); len(frontier) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Steps = int(depth)

		// Scan: expand every active vertex once for all its lanes.
		// seen is frozen for the whole level, so the unsynchronized
		// reads below are safe; visitNext is claimed by atomic OR.
		var cursor atomic.Int64
		f := frontier
		if err := par.Run(workers, func(w int) {
			acc := &ws[w]
			acc.touched = acc.touched[:0]
			var es, le int64
			for {
				base := int(cursor.Add(scanChunk)) - scanChunk
				if base >= len(f) {
					break
				}
				for _, v := range f[base:min(base+scanChunk, len(f))] {
					mask := visit[v]
					adj := g.Neighbors1(v)
					es += int64(len(adj))
					le += int64(bits.OnesCount64(mask)) * int64(len(adj))
					pdp := core.PackDP(v, depth)
					for _, u := range adj {
						d := mask &^ seen[u]
						if d == 0 {
							continue
						}
						old := orUint64(&visitNext[u], d)
						if old == 0 {
							acc.touched = append(acc.touched, u)
						}
						// Bits this worker transitioned 0→1: it is the
						// unique writer of those lanes' DP cells.
						for b := d &^ old; b != 0; b &= b - 1 {
							dp[bits.TrailingZeros64(b)][u] = pdp
						}
					}
				}
			}
			acc.edgesScanned, acc.laneEdges = es, le
		}); err != nil {
			return nil, err
		}
		for w := range ws {
			res.EdgesScanned += ws[w].edgesScanned
			res.LaneEdges += ws[w].laneEdges
		}

		// Retire the old frontier's visit masks, then commit the new
		// one: each worker owns exactly the vertices it discovered
		// (first-setter), so the commit writes are disjoint.
		if err := par.For(workers, len(frontier), func(lo, hi int) {
			for _, v := range frontier[lo:hi] {
				visit[v] = 0
			}
		}); err != nil {
			return nil, err
		}
		if err := par.Run(workers, func(w int) {
			for _, v := range ws[w].touched {
				nv := visitNext[v]
				visitNext[v] = 0
				seen[v] |= nv
				visit[v] = nv
			}
		}); err != nil {
			return nil, err
		}

		next = next[:0]
		for w := range ws {
			next = append(next, ws[w].touched...)
		}
		frontier, next = next, frontier
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

// orUint64 atomically ORs v into *p and returns the previous value
// (CAS loop; sync/atomic.OrUint64 needs go 1.23 and go.mod pins 1.22).
func orUint64(p *uint64, v uint64) uint64 {
	for {
		old := atomic.LoadUint64(p)
		if old&v == v {
			return old
		}
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return old
		}
	}
}
