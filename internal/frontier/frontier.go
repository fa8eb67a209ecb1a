// Package frontier manages the per-thread boundary-vertex arrays
// (BV_t^C / BV_t^N of the paper) and the TLB-miss-reducing rearrangement
// of the next frontier (paper §III-B3(b), after Kim et al.'s radix
// partitioning).
package frontier

import "sort"

// Frontier is the set of per-worker boundary-vertex arrays for one side
// (current or next). Capacity is retained across steps.
type Frontier struct {
	Arrays [][]uint32
}

// New returns a Frontier with one empty array per worker.
func New(workers int) *Frontier {
	return &Frontier{Arrays: make([][]uint32, workers)}
}

// Reset truncates all arrays, keeping capacity.
func (f *Frontier) Reset() {
	for i := range f.Arrays {
		f.Arrays[i] = f.Arrays[i][:0]
	}
}

// Total returns the total number of boundary vertices.
func (f *Frontier) Total() int64 {
	var n int64
	for _, a := range f.Arrays {
		n += int64(len(a))
	}
	return n
}

// Layout is the prefix-sum view of a Frontier used to divide the current
// frontier among workers by contiguous global ranges.
type Layout struct {
	prefix []int64
}

// Build recomputes l for f in place, reusing its storage: the engine
// rebuilds one layout per level.
func (l *Layout) Build(f *Frontier) {
	if cap(l.prefix) < len(f.Arrays)+1 {
		l.prefix = make([]int64, len(f.Arrays)+1)
	}
	l.prefix = l.prefix[:len(f.Arrays)+1]
	for i, a := range f.Arrays {
		l.prefix[i+1] = l.prefix[i] + int64(len(a))
	}
}

// Total returns the frontier size.
func (l *Layout) Total() int64 { return l.prefix[len(l.prefix)-1] }

// Start returns the global start position of worker w's array.
func (l *Layout) Start(w int) int64 { return l.prefix[w] }

// Segment is a sub-range of one worker's array.
type Segment struct {
	Worker int
	Lo, Hi int
}

// Slice maps the global half-open range [lo, hi) onto per-array local
// ranges, appending to out.
func (l *Layout) Slice(lo, hi int64, out []Segment) []Segment {
	if lo >= hi {
		return out
	}
	w := sort.Search(len(l.prefix), func(i int) bool { return l.prefix[i] > lo }) - 1
	for pos := lo; pos < hi && w < len(l.prefix)-1; w++ {
		start, end := l.prefix[w], l.prefix[w+1]
		if end <= pos {
			continue
		}
		s, e := pos, hi
		if end < e {
			e = end
		}
		out = append(out, Segment{Worker: w, Lo: int(s - start), Hi: int(e - start)})
		pos = e
	}
	return out
}

// Rearranger performs the paper's one-pass histogram rearrangement: the
// vertices of a next-frontier array are regrouped so that vertices whose
// adjacency lists live in the same memory region (a group of pages
// covered together by the TLB) are adjacent, before Phase-I of the next
// step streams through them.
//
// Region key: for a CSR graph the adjacency bytes of vertex v start at
// 4*Offsets[v], so region(v) = v >> shift is an exact proxy when vertex
// ids and adjacency offsets grow together, which CSR guarantees.
type Rearranger struct {
	shift  uint
	counts []int32
	tmp    []uint32
}

// NewRearranger builds a Rearranger with the given region shift and
// region count.
func NewRearranger(shift uint, regions int) *Rearranger {
	return &Rearranger{shift: shift, counts: make([]int32, regions)}
}

// RegionShift computes the rearrangement shift for a graph with
// numVertices vertices and adjBytes bytes of adjacency data, a TLB that
// covers tlbEntries pages of pageBytes each. The number of regions is
// ceil(totalPages / tlbEntries) rounded up to a power of two (paper: "the
// total number of pages occupied by the Adj array divided by the number
// of simultaneous pages held in the TLB").
func RegionShift(numVertices int, adjBytes int64, pageBytes int64, tlbEntries int) (shift uint, regions int) {
	if pageBytes <= 0 || tlbEntries <= 0 || numVertices == 0 {
		return 32, 1
	}
	pages := (adjBytes + pageBytes - 1) / pageBytes
	r := int((pages + int64(tlbEntries) - 1) / int64(tlbEntries))
	if r < 1 {
		r = 1
	}
	// Round region span (in vertices) to a power of two for shift math.
	span := (numVertices + r - 1) / r
	shift = 0
	for (1 << shift) < span {
		shift++
	}
	regions = (numVertices-1)>>shift + 1
	return shift, regions
}

// Rearrange regroups bv in place by region, stable within regions:
// histogram, scatter into a temporary array, copy back (the paper's
// three passes). It reuses internal buffers across calls.
func (r *Rearranger) Rearrange(bv []uint32) {
	if len(bv) < 2 || len(r.counts) < 2 {
		return
	}
	for i := range r.counts {
		r.counts[i] = 0
	}
	for _, v := range bv {
		r.counts[v>>r.shift]++
	}
	if cap(r.tmp) < len(bv) {
		r.tmp = make([]uint32, len(bv))
	}
	tmp := r.tmp[:len(bv)]
	// Exclusive prefix sums into cursors.
	sum := int32(0)
	for i, c := range r.counts {
		r.counts[i] = sum
		sum += c
	}
	for _, v := range bv {
		reg := v >> r.shift
		tmp[r.counts[reg]] = v
		r.counts[reg]++
	}
	copy(bv, tmp)
}
