package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustFromEdges(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {0, 1}})
	if g.NumVertices() != 4 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("E = %d", g.NumEdges())
	}
	if g.Degree(0) != 3 || g.Degree(1) != 1 || g.Degree(2) != 0 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2), g.Degree(3))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(2, 0) {
		t.Error("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestFromDegrees(t *testing.T) {
	g, err := FromDegrees([]int32{2, 0, 1}, func(v uint32, adj []uint32) {
		for i := range adj {
			adj[i] = (v + uint32(i) + 1) % 3
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("E = %d", g.NumEdges())
	}
	if got := g.Neighbors1(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("adj(0) = %v", got)
	}
	if _, err := FromDegrees([]int32{-1}, nil); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestSymmetrize(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}})
	s := g.Symmetrize()
	if s.NumEdges() != 4 {
		t.Fatalf("E = %d, want 4", s.NumEdges())
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !s.HasEdge(e.U, e.V) {
			t.Errorf("missing edge %v", e)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	perm := []uint32{2, 0, 3, 1}
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed")
	}
	for u := uint32(0); u < 4; u++ {
		for _, v := range g.Neighbors1(u) {
			if !r.HasEdge(perm[u], perm[v]) {
				t.Fatalf("edge (%d,%d) lost after relabel", u, v)
			}
		}
	}
	if _, err := g.Relabel([]uint32{0, 0, 1, 2}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := g.Relabel([]uint32{0}); err == nil {
		t.Error("short permutation accepted")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := mustFromEdges(t, 5, []Edge{{0, 1}, {1, 2}, {4, 0}, {3, 3}})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatal("shape mismatch after round trip")
	}
	for i := range g.Offsets {
		if g.Offsets[i] != h.Offsets[i] {
			t.Fatal("offsets differ")
		}
	}
	for i := range g.Neighbors {
		if g.Neighbors[i] != h.Neighbors[i] {
			t.Fatal("neighbors differ")
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}})
	path := t.TempDir() + "/g.csr"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	h, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("loaded E = %d", h.NumEdges())
	}
}

// TestFromEdgesProperty: CSR construction preserves the edge multiset.
func TestFromEdgesProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		edges := make([]Edge, len(raw))
		for i, x := range raw {
			edges[i] = Edge{U: uint32(x) % n, V: uint32(x>>8) % n}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		if g.NumEdges() != int64(len(edges)) {
			return false
		}
		// Count degree per source and compare.
		var deg [n]int
		for _, e := range edges {
			deg[e.U]++
		}
		for v := 0; v < n; v++ {
			if g.Degree(uint32(v)) != deg[v] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 0}})
	s := ComputeStats(g)
	if s.Vertices != 4 || s.Edges != 4 {
		t.Fatalf("stats shape: %+v", s)
	}
	if s.MinDegree != 0 || s.MaxDegree != 3 || s.Isolated != 2 {
		t.Fatalf("degree stats: %+v", s)
	}
	if s.MeanDegree != 1.0 {
		t.Fatalf("mean = %v", s.MeanDegree)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestBFSDepth(t *testing.T) {
	// Path 0-1-2-3 (directed chain).
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	depth, reached := BFSDepth(g, 0)
	if depth != 3 || reached != 4 {
		t.Fatalf("depth=%d reached=%d", depth, reached)
	}
	depth, reached = BFSDepth(g, 3)
	if depth != 0 || reached != 1 {
		t.Fatalf("sink: depth=%d reached=%d", depth, reached)
	}
}

func TestLargestReach(t *testing.T) {
	// Two components: {0,1,2} reachable from 0; {3} isolated-ish.
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {3, 3}})
	src, reached := LargestReach(g, 4)
	if reached < 3 {
		t.Fatalf("LargestReach found %d from %d, want >=3", reached, src)
	}
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("zero graph not empty")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	s := ComputeStats(&g)
	if s.Vertices != 0 {
		t.Error("stats on empty graph")
	}
}
