package graph

import (
	"sort"

	"fastbfs/internal/par"
)

// Transpose returns the graph with every edge reversed. For symmetric
// graphs the result equals the input (up to adjacency order).
func (g *Graph) Transpose() *Graph {
	n := g.NumVertices()
	deg := make([]int64, n+1)
	for _, w := range g.Neighbors {
		deg[w+1]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	neighbors := make([]uint32, len(g.Neighbors))
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors1(uint32(v)) {
			neighbors[cursor[w]] = uint32(v)
			cursor[w]++
		}
	}
	return &Graph{Offsets: offsets, Neighbors: neighbors}
}

// TransposeParallel is Transpose built with the parallel CSR machinery:
// the reversed edge list is materialized in adjacency order (so the
// stable parallel counting sort yields in-neighbors in ascending source
// order) and handed to FromEdgesParallel. The output is byte-identical
// to Transpose; workers <= 0 means par.DefaultWorkers(). This is the
// hybrid-traversal warm-up path — the transpose of a directed graph is
// built once per Engine and amortized across queries.
func (g *Graph) TransposeParallel(workers int) *Graph {
	if workers < 1 {
		workers = par.DefaultWorkers()
	}
	n := g.NumVertices()
	edges := make([]Edge, len(g.Neighbors))
	mustPar(par.For(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
				edges[k] = Edge{U: g.Neighbors[k], V: uint32(v)}
			}
		}
	}))
	t, err := FromEdgesParallel(n, edges, workers)
	if err != nil {
		// Unreachable for a well-formed graph (the only build errors are
		// out-of-range endpoints); keep the serial path as the safety net.
		return g.Transpose()
	}
	return t
}

// DegreeOrderPermutation returns a permutation that relabels vertices in
// descending degree order (perm[v] = new id of v). Applying it with
// Relabel clusters hubs at low ids — the locality-improving reordering
// the paper deliberately does NOT apply to its inputs ("we take in the
// input graphs as given, and do not reorder the vertices"), provided
// here for the reordering ablation.
func DegreeOrderPermutation(g *Graph) []uint32 {
	n := g.NumVertices()
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	perm := make([]uint32, n)
	for rank, v := range order {
		perm[v] = uint32(rank)
	}
	return perm
}

// ScramblePermutation returns a deterministic pseudo-random permutation
// derived from seed, used to destroy locality (the inverse ablation).
func ScramblePermutation(n int, seed uint64) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	// SplitMix-driven Fisher-Yates, inlined to avoid an xrand dependency
	// cycle concern — graph already depends only on par.
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// CountCrossRange counts edges whose endpoints fall in different blocks
// of size blockSize — a locality metric used by the reordering ablation
// (fewer cross-block edges = better page locality).
func (g *Graph) CountCrossRange(blockSize int) int64 {
	if blockSize <= 0 {
		return 0
	}
	n := g.NumVertices()
	counts := make([]int64, par.DefaultWorkers())
	mustPar(par.Run(len(counts), func(w int) {
		lo, hi := par.Range(n, w, len(counts))
		var c int64
		for v := lo; v < hi; v++ {
			bv := v / blockSize
			for _, u := range g.Neighbors1(uint32(v)) {
				if int(u)/blockSize != bv {
					c++
				}
			}
		}
		counts[w] = c
	}))
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}
