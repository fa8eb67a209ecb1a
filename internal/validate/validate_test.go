package validate

import (
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/core"
)

func TestValidAccepted(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(g, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Result(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestSerialAccepted(t *testing.T) {
	g, _ := gen.Grid2D(20, 20, 0, 1)
	res, err := core.SerialBFS(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Result(g, res); err != nil {
		t.Fatal(err)
	}
}

func corrupt(t *testing.T) (*graph.Graph, *core.Result) {
	t.Helper()
	g, _ := gen.UniformRandom(200, 6, 9)
	res, err := core.SerialBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Copy DP so corruption does not alias other tests.
	dp := append([]uint64(nil), res.DP...)
	res.DP = dp
	return g, res
}

func TestDetectsWrongSourceDepth(t *testing.T) {
	g, res := corrupt(t)
	res.DP[res.Source] = core.PackDP(res.Source, 3)
	if Result(g, res) == nil {
		t.Error("wrong source depth accepted")
	}
}

func TestDetectsWrongParentDepth(t *testing.T) {
	g, res := corrupt(t)
	// Find a vertex at depth 2 and give it a depth-2 parent's depth.
	for v := 0; v < g.NumVertices(); v++ {
		if res.Depth(uint32(v)) == 2 {
			p := uint32(res.DP[v] >> 32)
			res.DP[v] = core.PackDP(p, 3) // now depth(parent)+1 != depth
			break
		}
	}
	if Result(g, res) == nil {
		t.Error("inconsistent parent depth accepted")
	}
}

func TestDetectsNonEdgeParent(t *testing.T) {
	g, res := corrupt(t)
	for v := 0; v < g.NumVertices(); v++ {
		d := res.Depth(uint32(v))
		if d <= 0 {
			continue
		}
		// Point the parent at some same-depth-minus-one vertex with no
		// edge to v, if one exists.
		for u := 0; u < g.NumVertices(); u++ {
			if res.Depth(uint32(u)) == d-1 && !g.HasEdge(uint32(u), uint32(v)) {
				res.DP[v] = core.PackDP(uint32(u), uint32(d))
				if Result(g, res) == nil {
					t.Error("non-edge parent accepted")
				}
				return
			}
		}
	}
	t.Skip("no corruptible vertex found")
}

func TestDetectsDepthMismatch(t *testing.T) {
	g, res := corrupt(t)
	// Claim some unvisited... all are visited in UR; instead bump a leaf
	// vertex depth by 2 while keeping its parent consistent is hard —
	// just clear a visited vertex entirely: reference comparison fails.
	for v := g.NumVertices() - 1; v > 0; v-- {
		if res.Depth(uint32(v)) > 0 {
			res.DP[v] = core.INF
			break
		}
	}
	if Result(g, res) == nil {
		t.Error("missing vertex accepted")
	}
}

func TestSameDepthsLengthMismatch(t *testing.T) {
	g, res := corrupt(t)
	short := &core.Result{Source: res.Source, DP: res.DP[:10]}
	if SameDepths(res, short) == nil {
		t.Error("length mismatch accepted")
	}
	_ = g
}
