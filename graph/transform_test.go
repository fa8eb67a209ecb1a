package graph

import (
	"testing"
)

func TestTranspose(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {0, 2}, {2, 3}, {3, 0}})
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d", tr.NumEdges())
	}
	for u := uint32(0); u < 4; u++ {
		for _, v := range g.Neighbors1(u) {
			if !tr.HasEdge(v, u) {
				t.Fatalf("edge (%d,%d) missing reversed", u, v)
			}
		}
	}
	// Double transpose restores the edge multiset.
	back := tr.Transpose()
	for u := uint32(0); u < 4; u++ {
		if back.Degree(u) != g.Degree(u) {
			t.Fatalf("degree of %d changed after double transpose", u)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeParallelMatchesSerial(t *testing.T) {
	// Big enough to clear FromEdgesParallel's serial cutoff (4096 edges),
	// with skewed degrees, duplicate edges, self-loops and isolated
	// vertices. Byte-identical output is required, not just an equal
	// edge multiset: the hybrid engine treats the two as interchangeable.
	const n = 3000
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{uint32(i), uint32(i + 1)})
	}
	for i := 0; i < n; i += 3 {
		edges = append(edges, Edge{uint32(i), 0})             // hub in-degree
		edges = append(edges, Edge{7, uint32(i)})             // hub out-degree
		edges = append(edges, Edge{uint32(i), uint32(i)})     // self-loop
		edges = append(edges, Edge{uint32(i), uint32(n - 1)}) // duplicates below
		edges = append(edges, Edge{uint32(i), uint32(n - 1)})
	}
	g := mustFromEdges(t, n+50, edges) // 50 isolated vertices at the top
	want := g.Transpose()
	for _, workers := range []int{1, 2, 3, 7, 16} {
		got := g.TransposeParallel(workers)
		if len(got.Offsets) != len(want.Offsets) || len(got.Neighbors) != len(want.Neighbors) {
			t.Fatalf("workers=%d: shape mismatch", workers)
		}
		for i := range want.Offsets {
			if got.Offsets[i] != want.Offsets[i] {
				t.Fatalf("workers=%d: Offsets[%d] = %d, want %d", workers, i, got.Offsets[i], want.Offsets[i])
			}
		}
		for i := range want.Neighbors {
			if got.Neighbors[i] != want.Neighbors[i] {
				t.Fatalf("workers=%d: Neighbors[%d] = %d, want %d", workers, i, got.Neighbors[i], want.Neighbors[i])
			}
		}
	}
	// Default worker count (workers <= 0) must take the same path.
	got := g.TransposeParallel(0)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Fatalf("default workers: Neighbors[%d] mismatch", i)
		}
	}
}

func TestDegreeOrderPermutation(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{2, 0}, {2, 1}, {2, 3}, {0, 1}})
	perm := DegreeOrderPermutation(g)
	// Vertex 2 (degree 3) gets rank 0; vertex 0 (degree 1) rank 1.
	if perm[2] != 0 {
		t.Errorf("hub not first: perm = %v", perm)
	}
	if perm[0] != 1 {
		t.Errorf("second-degree vertex not second: perm = %v", perm)
	}
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degree(0) != 3 {
		t.Errorf("relabeled hub degree = %d", r.Degree(0))
	}
}

func TestScramblePermutation(t *testing.T) {
	p := ScramblePermutation(100, 7)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
	// Deterministic.
	q := ScramblePermutation(100, 7)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("not deterministic")
		}
	}
	// Not identity (overwhelmingly likely for n=100).
	same := 0
	for i, v := range p {
		if int(v) == i {
			same++
		}
	}
	if same > 20 {
		t.Errorf("%d fixed points: not scrambled", same)
	}
}

func TestCountCrossRange(t *testing.T) {
	// Chain 0-1-2-3 with block size 2: only edge (1,2) crosses.
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if c := g.CountCrossRange(2); c != 1 {
		t.Errorf("cross-range = %d, want 1", c)
	}
	if c := g.CountCrossRange(4); c != 0 {
		t.Errorf("single block cross-range = %d", c)
	}
	if c := g.CountCrossRange(0); c != 0 {
		t.Errorf("zero block size = %d", c)
	}
	// Scrambling a grid strictly increases cross-block edges.
	grid := mustFromEdges(t, 64, gridEdges(8, 8))
	scrambled, err := grid.Relabel(ScramblePermutation(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if scrambled.CountCrossRange(8) <= grid.CountCrossRange(8) {
		t.Error("scramble did not reduce locality")
	}
}

func gridEdges(rows, cols int) []Edge {
	var edges []Edge
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)}, Edge{id(r, c+1), id(r, c)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)}, Edge{id(r+1, c), id(r, c)})
			}
		}
	}
	return edges
}
