package core

import (
	"time"

	"fastbfs/internal/bitmap"
	"fastbfs/internal/numa"
	"fastbfs/internal/par"
	"fastbfs/internal/pbv"
	"fastbfs/internal/trace"
)

const cacheLine = 64

// serialLevelWork bounds the small-frontier fast path: a top-down level
// whose frontier holds fewer than this many vertices and fewer than this
// many out-edges is expanded by serialLevels instead of by the cohort.
// It applies only while the cohort's workers can each have a processor
// (levelBound); otherwise serialLevelWorkSolo does.
//
// It is a constant, not a knob: it compares two costs of this code, not
// a property of a graph. Measured on a 2-vCPU host (go1.24,
// BenchmarkBarrier in internal/par; BenchmarkEmptyLevel and
// BenchmarkSmallLevel here, three or four runs each; -cpu 1 / 2 / 4, the
// last oversubscribing the two cores), with the single-phase cohort
// level (one PBV bin, two barrier rounds):
//
//	barrier round, nothing between rounds   0.03  / 0.2-0.5 / 1.2-1.3 us
//	cohort level, empty (path graph)        0.1   / 1.4-1.9 / 2.9-3.0 us
//	cohort level, ~500 edges (grid256)      4.4-4.8 / 5.0-5.9 / 8.6-9.3 us
//	cohort level, ~2K edges (grid)          33-36 / 16.7-19.4 / 38-42 us
//	fast-path level, empty                  0.04-0.09 us
//	fast-path level, ~500 / ~2K edges       2.8-3.8 / 24-29 us
//	cohort cost per edge, scale-16 R-MAT    6.5-8.6 / 7.1-8.9 / 7.9-9.3 ns
//	fast-path cost per edge, same           4.7-6.7 ns
//
// What that settles at two workers: a ~2K-edge grid level is 5-12 us
// cheaper on the cohort and a ~500-edge one 1-2 us dearer, so the
// crossover lies between, and 1K sits between the measured loss and the
// measured win. On the scale-16 R-MAT the cohort wins at no level size
// (its DP is cache-resident, so the fast path's DP-only claim is cheap,
// while the workers' VIS and DP lines move between cores), so an R-MAT
// level of 1K-16K edges, which the fast path used to take, costs up to
// ~3 ns an edge more — a few levels a run. Oversubscribed (W=4 on two
// cores) the cohort loses at every size, which is why levelBound falls
// back to serialLevelWorkSolo there.
const serialLevelWork = 1 << 10

// serialLevelWorkSolo is the bound at one worker, where a cohort level
// pays no barrier and the choice between the two kernels is per edge
// and depends on the graph, not the level size: the fast path's DP-only
// claim wins while DP is cache-resident or the neighbours are local (the
// grid above: 12.5 against 17 ns/edge), the cohort's VIS probe and
// rearrangement once DP is not (a scale-20 R-MAT top-down run: 12.3
// against 16.5 ns/edge). It stays at the value measured for the
// two-phase cohort, which keeps small levels on the fast path and
// hands the big ones back. It is also the bound for a cohort whose
// workers would share processors, the bound every engine had before
// single-phase levels made small cohort levels cheap.
const serialLevelWorkSolo = 16 << 10

// levelBound is the fast-path bound for the level about to start. The
// cohort's small-level win rests on its barrier partners running at the
// same time: a worker waiting for one that has no processor loses the
// level's whole parallel gain (the oversubscribed rows above). So the
// 1K bound applies only while this engine's workers, added to every
// other goroutine running par.Run bodies in the process (other engines,
// batched sweeps, parallel loops), fit in the processors the run may
// use; otherwise, and at one worker, the bound is serialLevelWorkSolo.
// The daemon, whose two pooled W=2 engines and batched sweeps share two
// cores, is where this matters, but its benchmark workloads could not
// tell this rule from a bare 1K bound within their run-to-run spread;
// the rule rests on the oversubscribed rows.
func (e *Engine) levelBound() int64 {
	if e.serialBelow >= 0 {
		return e.serialBelow
	}
	w := e.cfg.Workers
	if w > 1 && par.Running()-e.own+w <= e.procs {
		return serialLevelWork
	}
	return serialLevelWorkSolo
}

// frontierIsSmall reports whether expanding e.cur is less work than
// levelBound: fewer vertices and fewer out-edges. The out-edge sum is
// e.curDeg, which the workers accumulated as they claimed the vertices.
func (e *Engine) frontierIsSmall() bool {
	bound := e.levelBound()
	return e.cur.Total() < bound && e.curDeg < bound
}

// serialLevels is the small-frontier fast path: it expands consecutive
// top-down levels on the calling goroutine, straight from the current
// frontier into next array 0 — no binning, no layouts, no rearrangement,
// no barrier — for as long as the direction stays top-down and the
// frontier stays small. Each level is closed by closeLevel, the same
// bookkeeping a cohort level gets. The caller must have the engine to
// itself: RunContext before the cohort exists, or worker 0 inside
// finishStep while the others wait on the barrier that publishes its
// window.
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
// no race for visit's protocol to tolerate, so DP alone decides, with
// plain accesses. The VIS structure is only kept in step for the cohort
// levels that may follow, as the bottom-up kernel does (markClaimed): a
// set bit must imply a visited vertex, and the exact atomic-bit kind
// needs the converse too.
//
// It keeps this claim of its own rather than calling visit's protocol
// (VIS probe, then DP), because the probe does not pay without a race to
// filter: with the protocol inlined as in direct, the serial rows of
// BenchmarkSmallLevel (W=1, six alternating runs each, 2-vCPU host)
// measured 14.0 ns/edge on the grid and 6.6 on R-MAT against this loop's
// 12.5 and 4.9 (medians).
func (e *Engine) expandSerial(st *workerState, depth uint32) {
	var visWords []uint32
	if e.visBit != nil {
		visWords = e.visBit.Words()
	}
	next := e.nxt.Arrays[0]
	for w, arr := range e.cur.Arrays {
		start := len(next)
		for _, u := range arr {
			adj := e.g.Neighbors[e.g.Offsets[u]:e.g.Offsets[u+1]]
			st.edges += int64(len(adj))
			for _, v := range adj {
				if e.dp[v] != INF {
					continue
				}
				e.dp[v] = PackDP(u, depth)
				e.markClaimed(visWords, int(v>>5), 1<<(v&31))
				st.appends++
				st.nextDeg += int64(e.g.Offsets[v+1] - e.g.Offsets[v]) // m_f, as in visit
				next = append(next, v)
			}
		}
		if e.cfg.Instrument {
			e.chargeExpansion(st, w, arr, next[start:])
		}
	}
	e.nxt.Arrays[0] = next
}

// phase1Range computes the global frontier range [lo, hi) a worker must
// expand this step, per the configured scheme (Phase-I, or a
// single-phase level).
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
			st.traffic.Add(numa.StructBV, e.topo.SocketOf(sg.Worker), 4*int64(len(arr)))
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
				st.traffic.Add(numa.StructAdj, e.topo.HomeSocket(u),
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
		st.traffic.Add(numa.StructPBV, st.socket, 8*st.bins.Entries())
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
			st.traffic.Add(numa.StructPBV, e.topo.SocketOf(sg.Worker),
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

// direct is the single-phase level: each worker expands a contiguous
// slice of the current frontier and updates VIS/DP in the same pass,
// appending what it claims to its own next array — Figure 1 of the
// paper with the configured VIS structure and atomic-free updates. It is
// the SchemeSinglePhase baseline, and every engine's top-down cohort
// level when there is one PBV bin (see Engine.twoPhase).
//
// For the bit kinds it calls claimBit, which inlines, rather than visit:
// a call per edge was half the kernel's cost on BenchmarkSmallLevel. The
// counters stay in locals so two workers never write one cache line per
// edge, and an instrumented run charges each slice's traffic after its
// loop (chargeExpansion), so it times the same kernel as a plain run.
func (e *Engine) direct(st *workerState, depth uint32) {
	lo, hi := e.phase1Range(st)
	st.fsegs = e.curLayout.Slice(lo, hi, st.fsegs[:0])
	var vis []uint32
	if e.visBit != nil {
		vis = e.visBit.Words()
	}
	dp, off, nbr := e.dp, e.g.Offsets, e.g.Neighbors
	pfd := e.cfg.PrefetchDist
	next := e.nxt.Arrays[st.id]
	var edges, appends, nextDeg int64
	var sink uint64
	for _, sg := range st.fsegs {
		arr := e.cur.Arrays[sg.Worker][sg.Lo:sg.Hi]
		start := len(next)
		for k, u := range arr {
			if pf := k + pfd; pfd > 0 && pf < len(arr) {
				sink += uint64(off[arr[pf]]) // as in phase1
			}
			adj := nbr[off[u]:off[u+1]]
			edges += int64(len(adj))
			if vis == nil {
				for _, v := range adj {
					next = e.visit(st, v, u, depth, next)
				}
				continue
			}
			packed := PackDP(u, depth)
			for _, v := range adj {
				if !claimBit(vis, v, &dp[v], packed) {
					continue
				}
				appends++
				nextDeg += int64(off[v+1] - off[v])
				next = append(next, v)
			}
		}
		if e.cfg.Instrument {
			claimed := next[start:]
			if vis == nil {
				claimed = nil // visit charged its claims
			}
			e.chargeExpansion(st, sg.Worker, arr, claimed)
		}
	}
	e.nxt.Arrays[st.id] = next
	st.edges += edges
	st.appends += appends
	st.nextDeg += nextDeg
	st.sink += sink
}

// visit applies the configured visited protocol to neighbor v with the
// given parent and depth, appending v to next on success.
//
// Atomic-free kinds follow paper Figure 2(b): the VIS probe may race
// (a plain store can drop a sibling bit, and two threads can pass the
// probe for the same vertex); the DP load repairs the first case and
// bounds the second to duplicate same-depth work.
func (e *Engine) visit(st *workerState, v, parent, depth uint32, next []uint32) []uint32 {
	packed := PackDP(parent, depth)
	switch e.cfg.VIS {
	case VISNone:
		// Direct DP check per neighbor (baseline: full DP traffic).
		if loadDP(&e.dp[v]) != INF {
			return next
		}
		storeDP(&e.dp[v], packed)
	case VISAtomicBit:
		// Exact claim via LOCK CMPXCHG; no DP re-check needed.
		if !e.visAtomic.TrySet(v) {
			return next
		}
		storeDP(&e.dp[v], packed)
	case VISByte:
		if !e.visByte.TrySet(v) || loadDP(&e.dp[v]) != INF {
			return next
		}
		storeDP(&e.dp[v], packed)
	default: // VISBit, VISPartitioned
		if !claimBit(e.visBit.Words(), v, &e.dp[v], packed) {
			return next
		}
	}
	st.appends++
	// m_f, for the direction heuristic and the fast-path bound. The
	// benign duplicate-claim race can double-count a vertex's degree;
	// both tolerate an over-estimate.
	st.nextDeg += int64(e.g.Offsets[v+1] - e.g.Offsets[v])
	if e.cfg.Instrument {
		e.chargeClaim(st, v)
	}
	return append(next, v)
}

// claimBit is Figure 2(b)'s claim of v for the bit VIS kinds, in one
// body for visit and direct: set v's bit in the VIS words, re-check v's
// DP entry dp (a plain store may have dropped a sibling's bit, so a set
// bit is not proof of a fresh vertex) and store packed in it. It reports whether v was
// claimed. Two workers can both claim a vertex of the same level; both
// store the same depth, and the duplicate is benign.
func claimBit(vis []uint32, v uint32, dp *uint64, packed uint64) bool {
	if !bitmap.TrySetIn(vis, v) || loadDP(dp) != INF {
		return false
	}
	storeDP(dp, packed)
	return true
}

// chargeExpansion charges, after the fact, the traffic of expanding arr,
// a slice of worker w's frontier array: the slice's BV read, each
// vertex's adjacency read, and the claim of each vertex in claimed. The
// totals equal charging every access as it happens, since traffic only
// sums bytes per structure and home socket.
func (e *Engine) chargeExpansion(st *workerState, w int, arr, claimed []uint32) {
	st.traffic.Add(numa.StructBV, e.topo.SocketOf(w), 4*int64(len(arr)))
	off := e.g.Offsets
	for _, u := range arr {
		st.traffic.Add(numa.StructAdj, e.topo.HomeSocket(u), 2*cacheLine+4*int64(off[u+1]-off[u]))
	}
	for _, v := range claimed {
		e.chargeClaim(st, v)
	}
}

// chargeClaim accounts the VIS touch (for the kinds that keep one), DP
// update and next-frontier append of a newly visited vertex.
func (e *Engine) chargeClaim(st *workerState, v uint32) {
	if e.visBit != nil || e.visByte != nil {
		st.traffic.Add(numa.StructVIS, e.topo.HomeSocket(v), 1)
	}
	e.chargeVisit(st, v)
}

// chargeVisit accounts the DP update and next-frontier append of a newly
// visited vertex.
func (e *Engine) chargeVisit(st *workerState, v uint32) {
	// DP update: read-modify-write of a full cache line (paper item 2.3).
	st.traffic.Add(numa.StructDP, e.topo.HomeSocket(v), 2*cacheLine)
	// BV^N append is local (paper item 2.4: write + RFO).
	st.traffic.Add(numa.StructBV, st.socket, 8)
}
