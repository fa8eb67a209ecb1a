// Package graph provides the compressed adjacency representation used by
// the fastbfs traversal engine, together with builders, statistics and a
// compact binary serialization.
//
// The representation mirrors the paper's "2D Adjacency Array": for vertex
// i, the neighbor ids are the slice Neighbors[Offsets[i]:Offsets[i+1]]
// (CSR). Vertex ids are uint32 and must stay below 2^31 because the
// engine's Potential Boundary Vertex encoding reserves the top bit for
// parent markers.
package graph

import (
	"errors"
	"fmt"

	"fastbfs/internal/par"
)

// MaxVertices is the largest vertex count the engine supports; the top
// bit of a vertex id is reserved for PBV parent markers.
const MaxVertices = 1 << 31

// mustPar re-raises a recovered worker panic on the calling goroutine.
// It is used where the enclosing API has no error return: the failure
// stays loud, but surfaces where callers can recover it instead of
// killing the process from an anonymous goroutine.
func mustPar(err error) {
	if err != nil {
		panic(err)
	}
}

// Edge is a directed edge from U to V.
type Edge struct {
	U, V uint32
}

// Graph is a directed graph in CSR form. The zero value is an empty
// graph. Graphs built by this package always have len(Offsets) ==
// NumVertices()+1 and monotonically non-decreasing offsets.
type Graph struct {
	// Offsets has one entry per vertex plus a terminator; the neighbors
	// of v are Neighbors[Offsets[v]:Offsets[v+1]].
	Offsets []int64
	// Neighbors stores the concatenated adjacency lists.
	Neighbors []uint32

	// mappedBytes, when non-zero, records that the CSR arrays alias a
	// read-only file mapping of this many bytes (see LoadMmap). The
	// mapping is released by a finalizer once the Graph is unreachable,
	// so a mapped graph must never be mutated and its slices must not
	// outlive the Graph value they came from.
	mappedBytes int64
}

// MappedBytes reports the size of the read-only file mapping backing
// this graph's CSR arrays, or 0 for a heap-allocated graph. Serving
// layers use it to account mapped versus heap residency: mapped bytes
// are reclaimable page cache, heap bytes are not.
func (g *Graph) MappedBytes() int64 { return g.mappedBytes }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumEdges returns the number of directed edges (adjacency entries).
func (g *Graph) NumEdges() int64 {
	if len(g.Offsets) == 0 {
		return 0
	}
	return g.Offsets[len(g.Offsets)-1]
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors1 returns the adjacency slice of v. The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors1(v uint32) []uint32 {
	return g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
}

// HasEdge reports whether the directed edge (u,v) is present. The
// adjacency list of u is scanned linearly (lists are not required to be
// sorted).
func (g *Graph) HasEdge(u, v uint32) bool {
	for _, w := range g.Neighbors1(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks structural invariants: offset monotonicity, terminator
// consistency and neighbor ids in range. It is O(V+E).
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n == 0 {
		if len(g.Neighbors) != 0 {
			return errors.New("graph: neighbors without vertices")
		}
		return nil
	}
	if n > MaxVertices {
		return fmt.Errorf("graph: %d vertices exceeds MaxVertices", n)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	for i := 0; i < n; i++ {
		if g.Offsets[i+1] < g.Offsets[i] {
			return fmt.Errorf("graph: Offsets not monotone at %d", i)
		}
	}
	if g.Offsets[n] != int64(len(g.Neighbors)) {
		return fmt.Errorf("graph: terminator %d != len(Neighbors) %d",
			g.Offsets[n], len(g.Neighbors))
	}
	var bad error
	if err := par.For(par.DefaultWorkers(), len(g.Neighbors), func(lo, hi int) {
		for _, v := range g.Neighbors[lo:hi] {
			if int(v) >= n {
				bad = fmt.Errorf("graph: neighbor id %d out of range", v)
				return
			}
		}
	}); err != nil {
		return err
	}
	return bad
}

// FromEdges builds a CSR graph with numVertices vertices from a directed
// edge list. Duplicate edges and self-loops are kept as given (the paper
// takes input graphs as-is). The build is a parallel counting sort on
// the source vertex; edges is left unmodified.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 || numVertices > MaxVertices {
		return nil, fmt.Errorf("graph: invalid vertex count %d", numVertices)
	}
	offsets := make([]int64, numVertices+1)
	for _, e := range edges {
		if int(e.U) >= numVertices || int(e.V) >= numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range", e.U, e.V)
		}
		offsets[e.U+1]++
	}
	for i := 0; i < numVertices; i++ {
		offsets[i+1] += offsets[i]
	}
	neighbors := make([]uint32, len(edges))
	cursor := make([]int64, numVertices)
	copy(cursor, offsets[:numVertices])
	for _, e := range edges {
		neighbors[cursor[e.U]] = e.V
		cursor[e.U]++
	}
	return &Graph{Offsets: offsets, Neighbors: neighbors}, nil
}

// FromDegrees builds a CSR graph given each vertex's out-degree and a
// fill function that writes the adjacency slice of each vertex. fill is
// invoked in parallel over vertex ranges; it must only write the slice it
// is given. This is the allocation-efficient path used by generators
// that know degrees up front.
func FromDegrees(degrees []int32, fill func(v uint32, adj []uint32)) (*Graph, error) {
	n := len(degrees)
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds MaxVertices", n)
	}
	offsets := make([]int64, n+1)
	for i, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: negative degree at vertex %d", i)
		}
		offsets[i+1] = offsets[i] + int64(d)
	}
	neighbors := make([]uint32, offsets[n])
	g := &Graph{Offsets: offsets, Neighbors: neighbors}
	// fill is caller-supplied code running on pool workers; a panic in it
	// comes back as an error rather than crashing the process.
	if err := par.For(par.DefaultWorkers(), n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			fill(uint32(v), neighbors[offsets[v]:offsets[v+1]])
		}
	}); err != nil {
		return nil, fmt.Errorf("graph: FromDegrees fill: %w", err)
	}
	return g, nil
}

// Symmetrize returns a new graph in which every edge (u,v) also appears
// as (v,u). Self-loops are kept once. Duplicate edges are preserved.
func (g *Graph) Symmetrize() *Graph {
	n := g.NumVertices()
	deg := make([]int64, n+1)
	for v := 0; v < n; v++ {
		deg[v+1] += g.Offsets[v+1] - g.Offsets[v]
	}
	for _, w := range g.Neighbors {
		deg[w+1]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	neighbors := make([]uint32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors1(uint32(v)) {
			neighbors[cursor[v]] = w
			cursor[v]++
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors1(uint32(v)) {
			neighbors[cursor[w]] = uint32(v)
			cursor[w]++
		}
	}
	return &Graph{Offsets: offsets, Neighbors: neighbors}
}

// Relabel returns a new graph whose vertex v has the id perm[v]; perm
// must be a permutation of [0, NumVertices). It is used to destroy or
// create locality for experiments (the paper deliberately does not
// reorder inputs; the ablation benches do).
func (g *Graph) Relabel(perm []uint32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: perm length %d != %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, errors.New("graph: perm is not a permutation")
		}
		seen[p] = true
	}
	inv := make([]uint32, n)
	for v, p := range perm {
		inv[p] = uint32(v)
	}
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[perm[v]] = int32(g.Degree(uint32(v)))
	}
	return FromDegrees(deg, func(nv uint32, adj []uint32) {
		old := inv[nv]
		src := g.Neighbors1(old)
		for i, w := range src {
			adj[i] = perm[w]
		}
	})
}
