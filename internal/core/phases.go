package core

import (
	"sync/atomic"
	"time"

	"fastbfs/internal/numa"
	"fastbfs/internal/par"
	"fastbfs/internal/pbv"
	"fastbfs/internal/trace"
)

const cacheLine = 64

// serialLevelWork bounds the small-frontier fast path: a top-down level
// whose frontier holds fewer than this many vertices and fewer than this
// many out-edges is expanded by serialLevels instead of by the cohort.
//
// It is a constant, not a knob: it compares two costs of this code, not
// a property of a graph. Measured on the 2-vCPU seed host (go1.24,
// BenchmarkBarrier in internal/par; BenchmarkEmptyLevel and
// BenchmarkSmallLevel here; -cpu 1,2,4, the last oversubscribing the
// two cores):
//
//	barrier round, nothing between rounds   0.02 / 0.25 / 0.65 us
//	cohort level, empty (path graph)        0.6  / 2.4  / 5.0  us
//	cohort level, ~2K edges (grid)          33   / 42   / 39   us
//	fast-path level, empty / ~2K edges      0.04 / 15.5 us
//	cohort cost per edge (W=1), c_p         10 ns (R-MAT) .. 16 ns (grid)
//	fast-path cost per edge, c_s            3 ns (R-MAT) .. 8 ns (grid)
//
// What that settles: a ~2K-edge level is 18-27 us cheaper on the fast
// path, and at one or two workers the fast path wins a level of any
// size (c_s <= c_p/2), so on this host every bound from a few K edges up
// measures the same and the measurements do not pick one. 16K is the low
// end of the 16-32K order the design expected, kept low because a cohort
// that does scale (c_p/W < c_s) should get the big levels back.
//
// Where that hand-back belongs is NOT measured. A W-worker cohort that
// scaled perfectly would beat the fast path above F/(c_s - c_p/W) edges,
// F being the cohort's fixed cost per level; with W = 8 and a guessed
// F of 20-40 us that is 3K-23K edges. It is an extrapolation from the
// per-edge costs above: the bound is unverified above two workers and
// no benchmark workload brackets the crossover. Run BenchmarkSmallLevel
// on a wider host before trusting or moving it.
const serialLevelWork = 16 << 10

// frontierIsSmall reports whether expanding e.cur is less work than
// e.serialBelow. The out-degree sum is only computed once the vertex
// count is under the bound, and the scan stops as soon as it is not.
func (e *Engine) frontierIsSmall() bool {
	if e.cur.Total() >= e.serialBelow {
		return false
	}
	var work int64
	for _, arr := range e.cur.Arrays {
		for _, u := range arr {
			work += int64(e.g.Offsets[u+1] - e.g.Offsets[u])
		}
		if work >= e.serialBelow {
			return false
		}
	}
	return true
}

// serialLevels is the small-frontier fast path: it expands consecutive
// top-down levels on the calling goroutine, straight from the current
// frontier into next array 0 — no binning, no layouts, no rearrangement,
// no barrier — for as long as the direction stays top-down and the
// frontier stays small. Each level is closed by closeLevel, the same
// bookkeeping a cohort level gets. The caller must have the engine to
// itself: RunContext before the cohort exists, or worker 0 inside
// finishStep while the cohort is parked on the end-of-step barrier.
func (e *Engine) serialLevels(maxSteps int) {
	for !e.stop && e.dir == DirTopDown && e.frontierIsSmall() {
		step := uint32(e.steps) + 1
		m := trace.StepMetrics{Step: int(step), Frontier: e.cur.Total(), Serial: true}
		var begin time.Time
		if e.cfg.Instrument {
			begin = time.Now()
		}
		e.expandSerial(e.ws[0], step)
		if e.cfg.Instrument {
			m.Phase1 = time.Since(begin) // one phase, as single-phase levels report
		}
		e.closeLevel(step, maxSteps, &m)
	}
}

// expandSerial is one level of the fast path: Figure 1's loop over the
// whole current frontier. With no other goroutine on the engine there is
// no race for visit's protocol to tolerate, so DP alone decides and is
// read and written with plain accesses — visit's atomic stores are full
// fences on x86 and were a third of a grid run (7 against 3 ns/edge on
// BenchmarkSmallLevel/rmat/serial). The VIS structure is only kept in
// step for the cohort levels that may follow, as the bottom-up kernel
// does (markClaimed): a set bit must imply a visited vertex, and the
// exact atomic-bit kind needs the converse too.
func (e *Engine) expandSerial(st *workerState, depth uint32) {
	var visWords []uint32
	if e.visBit != nil {
		visWords = e.visBit.Words()
	}
	next := e.nxt.Arrays[0]
	for w, arr := range e.cur.Arrays {
		if e.cfg.Instrument {
			st.traffic.Add(numa.StructBV, e.topo.SocketOf(w), st.socket, 4*int64(len(arr)))
		}
		for _, u := range arr {
			adj := e.g.Neighbors[e.g.Offsets[u]:e.g.Offsets[u+1]]
			st.edges += int64(len(adj))
			if e.cfg.Instrument {
				st.traffic.Add(numa.StructAdj, e.topo.HomeSocket(u), st.socket,
					2*cacheLine+4*int64(len(adj)))
			}
			for _, v := range adj {
				if e.dp[v] != INF {
					continue
				}
				e.dp[v] = PackDP(u, depth)
				e.markClaimed(visWords, int(v>>5), 1<<(v&31))
				st.appends++
				if e.cfg.Hybrid {
					st.nextDeg += int64(e.g.Offsets[v+1] - e.g.Offsets[v]) // m_f, as in visit
				}
				if e.cfg.Instrument {
					if visWords != nil || e.visByte != nil {
						// One VIS touch per claim, as visit charges it.
						st.traffic.Add(numa.StructVIS, e.topo.HomeSocket(v), st.socket, 1)
					}
					e.chargeVisit(st, v)
				}
				next = append(next, v)
			}
		}
	}
	e.nxt.Arrays[0] = next
}

// phase1Range computes the global frontier range [lo, hi) a worker must
// expand this step, per the configured scheme.
func (e *Engine) phase1Range(st *workerState) (lo, hi int64) {
	total := e.curLayout.Total()
	if e.cfg.Scheme == SchemeSocketAware {
		// Threads divide the frontier enqueued by their own socket
		// (paper §III-B3(a), non-load-balanced variant).
		wl, wh := e.topo.WorkersOf(st.socket)
		base := e.curLayout.Start(wl)
		span := e.curLayout.Start(wh) - base
		il, ih := par.Range64(span, st.id-wl, wh-wl)
		return base + il, base + ih
	}
	// Load-balanced (and single-phase): even global division.
	return par.Range64(total, st.id, e.cfg.Workers)
}

// phase1 expands the assigned frontier slice, binning each neighbor into
// the Potential Boundary Vertex arrays by vertex range (paper Phase-I).
func (e *Engine) phase1(st *workerState, step uint32) {
	st.bins.Reset()
	for i := range st.lastParent {
		st.lastParent[i] = ^uint32(0)
	}
	lo, hi := e.phase1Range(st)
	st.fsegs = e.curLayout.Slice(lo, hi, st.fsegs[:0])

	pair := e.enc == pbv.EncodingPair
	for _, sg := range st.fsegs {
		arr := e.cur.Arrays[sg.Worker][sg.Lo:sg.Hi]
		if e.cfg.Instrument {
			st.traffic.Add(numa.StructBV, e.topo.SocketOf(sg.Worker), st.socket, 4*int64(len(arr)))
		}
		for k, u := range arr {
			if pf := k + e.cfg.PrefetchDist; e.cfg.PrefetchDist > 0 && pf < len(arr) {
				// Software prefetch stand-in: touch the offset entry of a
				// vertex a fixed distance ahead so its cache line is in
				// flight before the dependent adjacency load.
				st.sink += uint64(e.g.Offsets[arr[pf]])
			}
			adj := e.g.Neighbors[e.g.Offsets[u]:e.g.Offsets[u+1]]
			st.edges += int64(len(adj))
			if e.cfg.Instrument {
				st.traffic.Add(numa.StructAdj, e.topo.HomeSocket(u), st.socket,
					2*cacheLine+4*int64(len(adj)))
			}
			if pair {
				e.binPair(st, u, adj)
			} else if e.cfg.BatchBinning {
				e.binMarkerBatch(st, u, adj)
			} else {
				e.binMarker(st, u, adj)
			}
		}
	}
	if e.cfg.Instrument {
		// PBV writes land in the worker's local allocation; write
		// traffic doubles for the read-for-ownership (paper item 1.4).
		st.traffic.Add(numa.StructPBV, st.socket, st.socket, 8*st.bins.Entries())
	}
}

// binMarker appends the neighbors of u to their bins in the marker
// encoding: a parent marker precedes the first neighbor that lands in a
// bin after another vertex last wrote to it.
func (e *Engine) binMarker(st *workerState, u uint32, adj []uint32) {
	shift := e.geo.binShift
	bins := st.bins.Bins
	for _, v := range adj {
		b := v >> shift
		bb := bins[b]
		if st.lastParent[b] != u {
			bb = append(bb, pbv.EncodeMarker(u))
			st.lastParent[b] = u
		}
		bins[b] = append(bb, v)
	}
}

// binMarkerBatch is binMarker with bin indices computed in blocks of
// eight — the scalar analogue of the paper's SSE binning (§III-C(4)).
func (e *Engine) binMarkerBatch(st *workerState, u uint32, adj []uint32) {
	shift := e.geo.binShift
	bins := st.bins.Bins
	var bidx [8]uint32
	j := 0
	for ; j+8 <= len(adj); j += 8 {
		blk := adj[j : j+8 : j+8]
		for k := 0; k < 8; k++ {
			bidx[k] = blk[k] >> shift
		}
		for k := 0; k < 8; k++ {
			b := bidx[k]
			bb := bins[b]
			if st.lastParent[b] != u {
				bb = append(bb, pbv.EncodeMarker(u))
				st.lastParent[b] = u
			}
			bins[b] = append(bb, blk[k])
		}
	}
	for ; j < len(adj); j++ {
		v := adj[j]
		b := v >> shift
		bb := bins[b]
		if st.lastParent[b] != u {
			bb = append(bb, pbv.EncodeMarker(u))
			st.lastParent[b] = u
		}
		bins[b] = append(bb, v)
	}
}

// binPair appends (parent, vertex) pairs — the footnote-4 encoding,
// chosen when N_PBV >= the average degree.
func (e *Engine) binPair(st *workerState, u uint32, adj []uint32) {
	shift := e.geo.binShift
	bins := st.bins.Bins
	for _, v := range adj {
		b := v >> shift
		bins[b] = append(bins[b], u, v)
	}
}

// socketSpan returns the global PBV range assigned to a socket this
// step under the configured scheme.
func (e *Engine) socketSpan(socket int) (lo, hi int64) {
	total := e.p2Layout.Total()
	if e.cfg.Scheme == SchemeSocketAware {
		// Static: socket owns exactly its own bins (vertex range).
		binLo := socket << e.geo.extraBits
		binHi := binLo + 1<<e.geo.extraBits
		lo = e.p2Layout.BinStart(binLo)
		if binHi >= e.geo.nPBV {
			hi = total
		} else {
			hi = e.p2Layout.BinStart(binHi)
		}
		return lo, hi
	}
	// Load-balanced: equal entry counts per socket (paper's scheme;
	// at most two bins shared across a boundary).
	return par.Range64(total, socket, e.cfg.Sockets)
}

// phase2Range computes the global PBV range a worker scans this step.
func (e *Engine) phase2Range(st *workerState) (lo, hi int64) {
	sl, sh := e.socketSpan(st.socket)
	wl, wh := e.topo.WorkersOf(st.socket)
	il, ih := par.Range64(sh-sl, st.id-wl, wh-wl)
	lo, hi = sl+il, sl+ih
	if e.enc == pbv.EncodingPair {
		// Pair entries occupy two words; all segment lengths are even,
		// so rounding both bounds down keeps the division exact.
		lo &^= 1
		hi &^= 1
	}
	return lo, hi
}

// phase2 scans the assigned PBV entries, performs the atomic-free
// VIS/DP update, and emits the next frontier (paper Phase-II).
func (e *Engine) phase2(st *workerState, step uint32) {
	lo, hi := e.phase2Range(st)
	st.psegs = e.p2Layout.Slice(lo, hi, st.psegs[:0])
	next := e.nxt.Arrays[st.id]

	for _, sg := range st.psegs {
		arr := e.ws[sg.Worker].bins.Bins[sg.Bin]
		if e.cfg.Instrument {
			st.traffic.Add(numa.StructPBV, e.topo.SocketOf(sg.Worker), st.socket,
				4*int64(sg.Hi-sg.Lo))
		}
		if e.enc == pbv.EncodingPair {
			for i := sg.Lo; i < sg.Hi; i += 2 {
				next = e.visit(st, arr[i+1], arr[i], step, next)
			}
			continue
		}
		parent := uint32(0)
		if sg.Lo > 0 {
			// The segment is split mid-stream: recover the parent in
			// effect by scanning back to the nearest marker.
			if p, ok := pbv.RecoverParent(arr, sg.Lo-1); ok {
				parent = p
			}
		}
		for i := sg.Lo; i < sg.Hi; i++ {
			x := arr[i]
			if pbv.IsMarker(x) {
				parent = pbv.DecodeMarker(x)
				continue
			}
			next = e.visit(st, x, parent, step, next)
		}
	}
	e.nxt.Arrays[st.id] = next
}

// direct is the single-phase baseline (no multi-socket optimization):
// expand and update in one pass, exactly Figure 1 of the paper but with
// the configured VIS structure and atomic-free updates.
func (e *Engine) direct(st *workerState, step uint32) {
	lo, hi := e.phase1Range(st)
	st.fsegs = e.curLayout.Slice(lo, hi, st.fsegs[:0])
	next := e.nxt.Arrays[st.id]
	for _, sg := range st.fsegs {
		arr := e.cur.Arrays[sg.Worker][sg.Lo:sg.Hi]
		if e.cfg.Instrument {
			st.traffic.Add(numa.StructBV, e.topo.SocketOf(sg.Worker), st.socket, 4*int64(len(arr)))
		}
		for k, u := range arr {
			if pf := k + e.cfg.PrefetchDist; e.cfg.PrefetchDist > 0 && pf < len(arr) {
				st.sink += uint64(e.g.Offsets[arr[pf]])
			}
			adj := e.g.Neighbors[e.g.Offsets[u]:e.g.Offsets[u+1]]
			st.edges += int64(len(adj))
			if e.cfg.Instrument {
				st.traffic.Add(numa.StructAdj, e.topo.HomeSocket(u), st.socket,
					2*cacheLine+4*int64(len(adj)))
			}
			for _, v := range adj {
				next = e.visit(st, v, u, step, next)
			}
		}
	}
	e.nxt.Arrays[st.id] = next
}

// visit applies the configured visited protocol to neighbor v with the
// given parent and depth, appending v to next on success.
//
// Atomic-free kinds follow paper Figure 2(b): the VIS probe may race
// (a plain store can drop a sibling bit, and two threads can pass the
// probe for the same vertex); the DP load repairs the first case and
// bounds the second to duplicate same-depth work.
func (e *Engine) visit(st *workerState, v, parent, depth uint32, next []uint32) []uint32 {
	switch e.cfg.VIS {
	case VISNone:
		// Direct DP check per neighbor (baseline: full DP traffic).
	case VISAtomicBit:
		// Exact claim via LOCK CMPXCHG; no DP re-check needed.
		if !e.visAtomic.TrySet(v) {
			return next
		}
		atomic.StoreUint64(&e.dp[v], PackDP(parent, depth))
		st.appends++
		if e.cfg.Hybrid {
			st.nextDeg += int64(e.g.Offsets[v+1] - e.g.Offsets[v])
		}
		if e.cfg.Instrument {
			e.chargeVisit(st, v)
		}
		return append(next, v)
	case VISByte:
		if !e.visByte.TrySet(v) {
			return next
		}
	default: // VISBit, VISPartitioned
		if !e.visBit.TrySet(v) {
			return next
		}
	}
	if e.cfg.Instrument {
		st.traffic.Add(numa.StructVIS, e.topo.HomeSocket(v), st.socket, 1)
	}
	if atomic.LoadUint64(&e.dp[v]) != INF {
		return next
	}
	atomic.StoreUint64(&e.dp[v], PackDP(parent, depth))
	st.appends++
	if e.cfg.Hybrid {
		// m_f for the direction heuristic. The benign duplicate-claim race
		// can double-count a vertex's degree; the heuristic tolerates it.
		st.nextDeg += int64(e.g.Offsets[v+1] - e.g.Offsets[v])
	}
	if e.cfg.Instrument {
		e.chargeVisit(st, v)
	}
	return append(next, v)
}

// chargeVisit accounts the DP update and next-frontier append of a newly
// visited vertex.
func (e *Engine) chargeVisit(st *workerState, v uint32) {
	// DP update: read-modify-write of a full cache line (paper item 2.3).
	st.traffic.Add(numa.StructDP, e.topo.HomeSocket(v), st.socket, 2*cacheLine)
	// BV^N append is local (paper item 2.4: write + RFO).
	st.traffic.Add(numa.StructBV, st.socket, st.socket, 8)
}
