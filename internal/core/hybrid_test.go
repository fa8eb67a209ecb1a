package core

import (
	"fmt"
	"math"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// hybridGraphs returns graphs with distinct direction-switch behavior:
// low-diameter scale-free graphs (both directednesses), a high-diameter
// symmetric grid, star graphs (the extreme bottom-up case), and a messy
// hand-built graph with self-loops and disconnected vertices.
func hybridGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{}
	var err error
	if gs["rmat-directed"], err = gen.RMAT(gen.Graph500Params(12, 8), 2); err != nil {
		tb.Fatal(err)
	}
	undirected := gen.Graph500Params(12, 8)
	undirected.Undirected = true
	if gs["rmat-undirected"], err = gen.RMAT(undirected, 3); err != nil {
		tb.Fatal(err)
	}
	if gs["grid"], err = gen.Grid2D(64, 64, 0, 3); err != nil {
		tb.Fatal(err)
	}
	// Directed star: source reaches every leaf at depth 1; the bottom-up
	// scan of any leaf must find parent 0 via the transpose.
	star := make([]graph.Edge, 0, 2047)
	for v := uint32(1); v < 2048; v++ {
		star = append(star, graph.Edge{U: 0, V: v})
	}
	if gs["star-out"], err = graph.FromEdges(2048, star); err != nil {
		tb.Fatal(err)
	}
	gs["star-sym"] = gs["star-out"].Symmetrize()
	// Self-loops, a small cycle, and vertices 8..63 disconnected except
	// for an isolated component {40,41} unreachable from 0.
	messy := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 3}, {U: 3, V: 4}, {U: 40, V: 41},
	}
	if gs["messy"], err = graph.FromEdges(64, messy); err != nil {
		tb.Fatal(err)
	}
	gs["sparse-tail"] = sparseTail(tb)
	return gs
}

// sparseTail is a directed random graph on 1000 vertices (not a multiple
// of 32) where the source 0 and every multiple of 5 have in-degree 0, so
// the bottom-up candidate mask drops vertices from every word, including
// the partial tail word (992..999), which also holds reachable vertices.
func sparseTail(tb testing.TB) *graph.Graph {
	tb.Helper()
	const n = 1000
	var edges []graph.Edge
	x := uint32(1)
	for u := uint32(0); u < n; u++ {
		for k := 0; k < 4; k++ {
			x = x*1664525 + 1013904223 // LCG: deterministic, no seed plumbing
			if v := (x >> 22) % n; v%5 != 0 {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// inAdjFor returns the InAdj hook for g: nil for symmetric graphs (the
// engine then uses g itself), a transpose thunk otherwise.
func inAdjFor(name string, g *graph.Graph) func() *graph.Graph {
	switch name {
	case "rmat-undirected", "grid", "star-sym":
		return nil
	}
	return func() *graph.Graph { return g.TransposeParallel(0) }
}

func checkParents(t *testing.T, g *graph.Graph, res *Result, source uint32, label string) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		dp := res.DP[v]
		if dp == INF {
			continue
		}
		p, d := UnpackDP(dp)
		if uint32(v) == source {
			if d != 0 || p != source {
				t.Fatalf("%s: source DP = (%d,%d)", label, p, d)
			}
			continue
		}
		if !g.HasEdge(p, uint32(v)) {
			t.Fatalf("%s: parent %d of %d is not an in-neighbor", label, p, v)
		}
		pd := res.Depth(p)
		if pd < 0 || uint32(pd)+1 != d {
			t.Fatalf("%s: depth(%d)=%d but parent %d has depth %d", label, v, d, p, pd)
		}
	}
}

// TestHybridMatchesSerial demands exact depth equality with the serial
// reference and valid parents for hybrid runs across graphs, VIS kinds,
// worker counts, fast-path bounds and α corners — including forced
// bottom-up (α=+Inf, switch at level 2) and never-switch (α→0⁺, pure
// top-down).
func TestHybridMatchesSerial(t *testing.T) {
	alphas := []struct {
		name        string
		alpha, beta float64
	}{
		{"default", 0, 0},
		// α=+Inf switches at level 2; β=+Inf sets the return threshold
		// n/β to zero, so every later level stays bottom-up.
		{"forced", math.Inf(1), math.Inf(1)},
		{"never", 1e-12, 0},
		// Hybrid off: the same graph shapes through the plain engine.
		{"off", 0, 0},
	}
	for name, g := range hybridGraphs(t) {
		ref, err := SerialBFS(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, vis := range []VISKind{VISNone, VISAtomicBit, VISByte, VISPartitioned} {
			for _, workers := range []int{1, 3, 8} {
				for _, a := range alphas {
					label := fmt.Sprintf("%s/%v/w%d/%s", name, vis, workers, a.name)
					cfg := Config{
						Workers: workers, VIS: vis,
						Scheme: SchemeLoadBalanced, Rearrange: true,
						CacheBytes: 1 << 12, // tiny LLC: forces N_VIS > 1
						Hybrid:     a.name != "off", Alpha: a.alpha, Beta: a.beta,
						InAdj: inAdjFor(name, g),
					}
					e, err := New(g, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for _, bound := range serialBounds {
						label := fmt.Sprintf("%s/serial<%d", label, bound)
						e.serialBelow = bound
						res, err := e.Run(0)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameDepths(t, g, ref, res, label)
						checkParents(t, g, res, 0, label)
						if res.Visited != ref.Visited {
							t.Fatalf("%s: visited %d, want %d", label, res.Visited, ref.Visited)
						}
						if cfg.Hybrid && len(res.Directions) != res.Steps {
							t.Fatalf("%s: %d directions for %d steps", label, len(res.Directions), res.Steps)
						}
						switch a.name {
						case "never":
							for lvl, d := range res.Directions {
								if d != DirTopDown {
									t.Fatalf("%s: level %d went bottom-up with α→0", label, lvl+1)
								}
							}
						case "forced":
							if res.Directions[0] != DirTopDown {
								t.Fatalf("%s: level 1 must be top-down", label)
							}
							// The last level's frontier can have zero out-degree,
							// in which case scout=0 fails the strict m_f > m_u/α
							// test even at α=+Inf; all interior levels must flip.
							for lvl := 1; lvl < len(res.Directions)-1; lvl++ {
								if res.Directions[lvl] != DirBottomUp {
									t.Fatalf("%s: α=+Inf level %d not bottom-up (%s)",
										label, lvl+1, DirectionString(res.Directions))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestHybridManySources sweeps sources on the directed RMAT graph with
// default α/β: the realistic mixed trajectory (top-down → bottom-up →
// top-down) must stay exact from any root.
func TestHybridManySources(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(13, 16), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Workers = 4
	cfg.Hybrid = true
	cfg.InAdj = func() *graph.Graph { return g.TransposeParallel(0) }
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawBottomUp := false
	for _, src := range []uint32{0, 1, 17, 4095, 8191} {
		ref, err := SerialBFS(g, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("src=%d dirs=%s", src, DirectionString(res.Directions))
		sameDepths(t, g, ref, res, label)
		checkParents(t, g, res, src, label)
		for _, d := range res.Directions {
			if d == DirBottomUp {
				sawBottomUp = true
			}
		}
	}
	if !sawBottomUp {
		t.Error("default α never selected bottom-up on a scale-13 RMAT")
	}
}

// TestHybridNoInMaskAcrossSources reuses one engine across sources on
// the sparse-tail graph: the in-degree-0 mask is built once, at the first
// switch, and every later run (sources with and without in-neighbors)
// stays exact on it.
func TestHybridNoInMaskAcrossSources(t *testing.T) {
	g := sparseTail(t)
	tr := g.Transpose()
	for _, vis := range []VISKind{VISPartitioned, VISByte} {
		cfg := DefaultConfig(1)
		cfg.Workers = 3
		cfg.VIS = vis
		cfg.Hybrid = true
		cfg.Alpha, cfg.Beta = math.Inf(1), math.Inf(1) // every run stays bottom-up from level 2
		cfg.InAdj = func() *graph.Graph { return tr }
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.serialBelow = 0
		var mask []uint32
		for _, src := range []uint32{0, 1, 995, 997, 999, 500, 0} {
			label := fmt.Sprintf("%v/src=%d", vis, src)
			ref, err := SerialBFS(g, src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(src)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameDepths(t, g, ref, res, label)
			checkParents(t, g, res, src, label)
			if mask == nil {
				mask = e.noIn
			} else if &e.noIn[0] != &mask[0] {
				t.Fatalf("%s: noIn rebuilt after the first switch", label)
			}
		}
		if mask == nil {
			t.Fatalf("%v: no run switched to bottom-up", vis)
		}
		for v := 0; v < 1024; v++ {
			want := v >= g.NumVertices() || tr.Degree(uint32(v)) == 0
			if got := mask[v>>5]&(1<<(v&31)) != 0; got != want {
				t.Fatalf("%v: noIn bit %d = %v, want %v", vis, v, got, want)
			}
		}
	}
}

// TestHybridTransposeCachedAcrossRuns asserts InAdj is invoked at most
// once per Engine regardless of how many runs switch to bottom-up — the
// serve-pool amortization contract.
func TestHybridTransposeCachedAcrossRuns(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 5)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfg := DefaultConfig(1)
	cfg.Workers = 2
	cfg.Hybrid = true
	cfg.Alpha = math.Inf(1) // every run switches
	cfg.InAdj = func() *graph.Graph { calls++; return g.Transpose() }
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Run(uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("InAdj called %d times, want 1", calls)
	}
}

// TestHybridInstrumented checks the per-level trace marks bottom-up
// steps and stays internally consistent.
func TestHybridInstrumented(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Workers = 3
	cfg.Hybrid = true
	cfg.Instrument = true
	cfg.InAdj = func() *graph.Graph { return g.Transpose() }
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	if len(res.Trace.Steps) != len(res.Directions) {
		t.Fatalf("trace has %d steps, directions %d", len(res.Trace.Steps), len(res.Directions))
	}
	for i, s := range res.Trace.Steps {
		if s.BottomUp != (res.Directions[i] == DirBottomUp) {
			t.Fatalf("step %d: trace BottomUp=%v, direction %v", i+1, s.BottomUp, res.Directions[i])
		}
	}
	if res.Trace.TotalEdges != res.EdgesTraversed {
		t.Fatalf("trace edges %d != result %d", res.Trace.TotalEdges, res.EdgesTraversed)
	}
}
