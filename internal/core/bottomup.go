package core

import (
	"math/bits"
	"time"

	"fastbfs/graph"
	"fastbfs/internal/numa"
	"fastbfs/internal/par"
	"fastbfs/internal/trace"
)

// Bottom-up traversal (the direction-optimizing extension, after Beamer
// et al.): when the frontier's out-edge sum m_f grows past a fraction of
// the unexplored edges m_u, it is cheaper to flip the loop — each
// UNVISITED vertex scans its in-neighbors and stops at the first one
// found in the frontier — than to expand the frontier outward. On
// low-diameter RMAT graphs the middle levels touch nearly every edge
// top-down; bottom-up's early exit skips most of them.
//
// Integration with the paper's machinery:
//
//   - Worker ranges are WORD-ALIGNED over the frontier bitmaps (32
//     vertices per 32-bit word), so every bottom-up write — the DP
//     claim, the VIS bit, the next-frontier bit — lands in storage only
//     the owning worker touches. The kernel therefore needs no atomics
//     and no DP recheck: claims are exclusive by construction, which is
//     strictly stronger than the top-down atomic-free + recheck
//     discipline and composes with it across the step barrier.
//   - The scan order is sequential over the vertex range, which visits
//     the N_VIS cache partitions in ascending order: the active VIS/DP
//     slice stays LLC-resident exactly as in the top-down phases.
//   - Claimed vertices are appended to the regular per-worker next
//     arrays as well as the next-frontier bitmap, so a bottom-up→
//     top-down transition is free (finishStep's swap works unchanged)
//     and frontier totals need no bitmap popcount.

// buWords returns the word range [lo, hi) of the frontier bitmaps owned
// by worker w.
func (e *Engine) buWords(w int) (lo, hi int) {
	return par.Range(e.nextBit.NumWords(), w, e.cfg.Workers)
}

// bottomUpStep runs one bottom-up level: the optional array→bitmap
// frontier conversion, this worker's share of the in-neighbor scan, and
// (on worker 0) the step finish. Returns false when the worker must
// exit — a broken barrier or a stop decision.
func (e *Engine) bottomUpStep(st *workerState, step uint32, maxSteps int) bool {
	w := st.id
	wLo, wHi := e.buWords(w)
	// Clear this worker's share of the next-frontier bitmap. No barrier
	// needed: the scan sets next-frontier bits only in this same range.
	e.nextBit.ClearWords(wLo, wHi)

	if e.buConvert {
		// First bottom-up level after a top-down one: materialize the
		// frontier bitmap from the per-worker frontier arrays. Each
		// worker clears its own word range, then (after a barrier) ORs
		// its own array in — the array holds arbitrary vertex ids, so
		// two workers can collide in a word and Or must CAS.
		e.frontBit.ClearWords(wLo, wHi)
		if !e.bar.Wait() {
			return false
		}
		for _, u := range e.cur.Arrays[w] {
			e.frontBit.Or(u)
		}
		if !e.bar.Wait() {
			return false
		}
	}

	e.bottomUp(st, step, wLo, wHi)
	if !e.bar.Wait() {
		return false
	}

	if w == 0 {
		var m trace.StepMetrics
		m.Step = int(step)
		m.Frontier = e.awake
		m.BottomUp = true
		m.Phase1 = time.Since(e.stepMark)
		e.finishStep(step, maxSteps, &m)
	}
	if !e.bar.Wait() {
		return false
	}
	return !e.stop
}

// bottomUp scans this worker's vertex range for unvisited vertices and
// claims a frontier parent for each via early-exiting in-neighbor scan.
//
// Only candidates are scanned: per 32-vertex word, the vertices whose VIS
// bit is clear and that have at least one in-neighbor (the noIn mask).
// A set VIS bit implies a visited vertex (TrySet always precedes the
// claim-or-duplicate outcome, and the step barrier orders both), and a
// vertex with no in-neighbors can never find a frontier parent, so
// neither can be claimed here. The converse does not hold — dropped
// sibling VIS bits leave visited vertices among the candidates — which
// is why each candidate is still tested against DP, the authority. The
// set bits are visited in ascending order, so the scan order and the
// first-found parent are those of a full scan.
func (e *Engine) bottomUp(st *workerState, depth uint32, wLo, wHi int) {
	in := e.in
	noIn := e.noIn
	front := e.frontBit.Words()
	nextW := e.nextBit.Words()
	next := e.nxt.Arrays[st.id]

	var visWords []uint32
	if e.visBit != nil {
		visWords = e.visBit.Words()
	}

	for wi := wLo; wi < wHi; wi++ {
		skip := noIn[wi]
		if visWords != nil {
			skip |= visWords[wi]
		}
		base := uint32(wi) << 5
		var claimed uint32
		for c := ^skip; c != 0; c &= c - 1 {
			b := uint32(bits.TrailingZeros32(c))
			v := base + b
			if e.dp[v] != INF {
				continue
			}
			adj := in.Neighbors[in.Offsets[v]:in.Offsets[v+1]]
			scanned := 0
			for _, u := range adj {
				scanned++
				if front[u>>5]&(1<<(u&31)) != 0 {
					e.dp[v] = PackDP(u, depth)
					claimed |= 1 << b
					next = append(next, v)
					st.appends++
					break
				}
			}
			st.edges += int64(scanned)
			if e.cfg.Instrument {
				st.traffic.Add(numa.StructAdj, e.topo.HomeSocket(v), st.socket,
					2*cacheLine+4*int64(scanned))
			}
		}
		if claimed != 0 {
			nextW[wi] |= claimed
			e.markClaimed(visWords, wi, claimed)
			if e.cfg.Instrument {
				for c := claimed; c != 0; c &= c - 1 {
					e.chargeVisit(st, base+uint32(bits.TrailingZeros32(c)))
				}
			}
		}
	}
	e.nxt.Arrays[st.id] = next
}

// noInMask returns one bit per vertex of in, set where the vertex has no
// in-neighbors. The tail word's bits past |V| are set as well, so the
// bottom-up candidate mask never names a vertex that does not exist.
func noInMask(in *graph.Graph) []uint32 {
	n := in.NumVertices()
	mask := make([]uint32, (n+31)/32)
	off := in.Offsets
	for v := 0; v < n; v++ {
		if off[v] == off[v+1] {
			mask[v>>5] |= 1 << (v & 31)
		}
	}
	if r := n & 31; r != 0 {
		mask[len(mask)-1] |= ^uint32(0) << r
	}
	return mask
}

// markClaimed mirrors exclusive DP claims — the vertices of bitmap word
// wi selected by mask — into the VIS structure, so later cohort top-down
// levels skip them at probe cost, not DP cost. For callers that own the
// word: a bottom-up worker's range, or the serial fast path. visWords is
// the caller's hoisted e.visBit.Words() (nil for the other VIS kinds);
// that case is split out so it inlines into the callers' loops.
func (e *Engine) markClaimed(visWords []uint32, wi int, mask uint32) {
	if visWords != nil {
		visWords[wi] |= mask
		return
	}
	e.markClaimedEach(uint32(wi)<<5, mask)
}

func (e *Engine) markClaimedEach(base, mask uint32) {
	switch {
	case e.visByte != nil:
		for c := mask; c != 0; c &= c - 1 {
			e.visByte.TrySet(base + uint32(bits.TrailingZeros32(c)))
		}
	case e.visAtomic != nil:
		for c := mask; c != 0; c &= c - 1 {
			e.visAtomic.TrySet(base + uint32(bits.TrailingZeros32(c)))
		}
	}
}

// directionStep records the finished level's direction and decides the
// next one (Beamer's α/β heuristic in the GAP formulation). Runs on
// worker 0 inside finishStep, after the frontier swap: `total` is the
// size of the frontier the next level will expand.
func (e *Engine) directionStep(m *trace.StepMetrics, total int64) {
	e.dirs = append(e.dirs, e.dir)
	e.buConvert = false
	if e.dir == DirTopDown {
		// m_u shrinks by the edges this top-down step examined (bottom-up
		// steps leave it alone, matching GAP: the estimate only needs to
		// be conservative).
		e.muEdges -= m.Edges
		var scout int64 // m_f: out-edge sum of the frontier just produced
		for _, st := range e.ws {
			scout += st.nextDeg
			st.nextDeg = 0
		}
		// The new frontier's out-edges are by definition unexamined, so
		// m_u >= m_f. Without duplicate claims that already holds and this
		// is a no-op; a racing cohort expands a doubly-claimed vertex twice,
		// m.Edges over-counts, and m_u would otherwise sink to 0 and flip a
		// late level at any α.
		if e.muEdges < scout {
			e.muEdges = scout
		}
		if total > 0 && float64(scout) > float64(e.muEdges)/e.cfg.Alpha {
			e.dir = DirBottomUp
			e.buConvert = true
			if e.in == nil {
				// First switch ever: resolve the in-adjacency. cfg.InAdj
				// may run a parallel transpose — safe here because par.Run
				// spawns fresh goroutines rather than borrowing this pool.
				if e.cfg.InAdj != nil {
					e.in = e.cfg.InAdj()
				} else {
					e.in = e.g // symmetric graph is its own in-adjacency
				}
				e.noIn = noInMask(e.in)
			}
		}
	} else {
		// Stay bottom-up while the frontier keeps growing or remains a
		// large fraction of the graph; otherwise return top-down. The
		// next arrays already hold the frontier in vertex order, so the
		// return costs nothing.
		if total >= e.awake || float64(total) > float64(e.g.NumVertices())/e.cfg.Beta {
			// The bitmap stays the frontier representation: swap.
			e.frontBit, e.nextBit = e.nextBit, e.frontBit
		} else {
			e.dir = DirTopDown
		}
	}
}
