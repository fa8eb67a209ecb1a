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

// Hybrid multi-source sweep: the direction-optimizing rule of the
// single-source engine applied to the bit-parallel MS-BFS. MS-BFS is
// unusually well placed for bottom-up levels because its frontier is
// ALREADY a dense per-vertex structure (the visit masks), so switching
// direction costs nothing — no array↔bitmap conversion at all. A
// bottom-up level iterates the vertices with unseen lanes and scans
// in-neighbors until every lane has found a parent (the multi-source
// analogue of first-parent early exit: the scan stops when the
// remaining-lanes mask drains, not after one hit).

// RunHybridContext performs one direction-optimizing multi-source sweep
// under ctx, checked between levels. in is the in-adjacency used by
// bottom-up levels; nil asserts g is symmetric (g then serves as its own
// in-adjacency). Depths per lane are exactly those of independent BFS
// runs. workers <= 0 means GOMAXPROCS. The direction rule is the
// engine's, core.NextDirection, at its default α/β.
func RunHybridContext(ctx context.Context, g, in *graph.Graph, sources []uint32, workers int) (*Result, error) {
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
	if in == nil {
		in = g
	}
	if in.NumVertices() != n {
		return nil, fmt.Errorf("msbfs: in-adjacency has %d vertices, graph %d", in.NumVertices(), n)
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

	dir := core.DirTopDown
	muEdges := g.NumEdges()

	for depth := uint32(1); len(frontier) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Steps = int(depth)
		res.Directions = append(res.Directions, dir)

		var levelScanned int64
		if dir == core.DirTopDown {
			scanTopDown(g, frontier, visit, seen, visitNext, dp, ws, depth, workers)
		} else {
			scanBottomUp(in, batchMask(lanes), visit, seen, visitNext, dp, ws, depth, workers)
		}
		for w := range ws {
			levelScanned += ws[w].edgesScanned
			res.EdgesScanned += ws[w].edgesScanned
			res.LaneEdges += ws[w].laneEdges
		}

		// Retire the old frontier's visit masks, then commit the new one
		// (workers own the vertices they discovered, so writes are
		// disjoint — in bottom-up levels by vertex-range construction).
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

		// Direction decision for the next level: the engine's rule at its
		// default α/β. Only a top-down level reads m_f.
		var scout int64
		if dir == core.DirTopDown {
			for _, v := range next {
				scout += int64(g.Offsets[v+1] - g.Offsets[v])
			}
		}
		dir, muEdges = core.NextDirection(core.Level{
			Dir: dir, Mu: muEdges, Examined: levelScanned,
			Awake: int64(len(frontier)), Next: int64(len(next)), Scout: scout,
		}, int64(n), core.DefaultAlpha, core.DefaultBeta)

		frontier, next = next, frontier
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

// scanTopDown is the plain MS-BFS level scan (same kernel as
// RunContext): expand every frontier vertex once for all its lanes.
func scanTopDown(g *graph.Graph, frontier []uint32, visit, seen, visitNext []uint64,
	dp [][]uint64, ws []workerAcc, depth uint32, workers int) {
	var cursor atomic.Int64
	mustRun(par.Run(workers, func(w int) {
		acc := &ws[w]
		acc.touched = acc.touched[:0]
		var es, le int64
		for {
			base := int(cursor.Add(scanChunk)) - scanChunk
			if base >= len(frontier) {
				break
			}
			for _, v := range frontier[base:min(base+scanChunk, len(frontier))] {
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
					for b := d &^ old; b != 0; b &= b - 1 {
						dp[bits.TrailingZeros64(b)][u] = pdp
					}
				}
			}
		}
		acc.edgesScanned, acc.laneEdges = es, le
	}))
}

// batchMask returns the mask of live lanes.
func batchMask(lanes int) uint64 {
	return ^uint64(0) >> uint(64-lanes)
}

// scanBottomUp runs one bottom-up level: every vertex with unseen lanes
// scans its in-neighbors, claiming a parent per lane, and stops as soon
// as no lane remains. Workers take contiguous vertex ranges, so every
// write — DP cells, visitNext, the touched list — is worker-exclusive
// and the kernel needs no atomics.
func scanBottomUp(in *graph.Graph, mask uint64, visit, seen, visitNext []uint64,
	dp [][]uint64, ws []workerAcc, depth uint32, workers int) {
	n := in.NumVertices()
	mustRun(par.Run(workers, func(w int) {
		acc := &ws[w]
		acc.touched = acc.touched[:0]
		var es, le int64
		lo, hi := par.Range(n, w, workers)
		for v := lo; v < hi; v++ {
			rem := mask &^ seen[v]
			if rem == 0 {
				continue
			}
			var nv uint64
			for _, u := range in.Neighbors1(uint32(v)) {
				es++
				le += int64(bits.OnesCount64(rem))
				d := visit[u] & rem
				if d == 0 {
					continue
				}
				pdp := core.PackDP(u, depth)
				for b := d; b != 0; b &= b - 1 {
					dp[bits.TrailingZeros64(b)][v] = pdp
				}
				nv |= d
				rem &^= d
				if rem == 0 {
					break
				}
			}
			if nv != 0 {
				visitNext[uint32(v)] = nv
				acc.touched = append(acc.touched, uint32(v))
			}
		}
		acc.edgesScanned, acc.laneEdges = es, le
	}))
}

// mustRun panics on par.Run pool errors (nil worker counts are
// validated by the callers, so the only failure mode is a worker panic,
// which par.Run re-raises anyway).
func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}
