package msbfs

import (
	"context"
	"errors"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/core"
)

// checkLanesMatchSerial asserts every lane's depths equal an independent
// serial run from that lane's source.
func checkLanesMatchSerial(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	for k, s := range res.Sources {
		ref, err := core.SerialBFS(g, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			want := ref.Depth(uint32(v))
			got := res.Depth(k, uint32(v))
			if got != want {
				t.Fatalf("lane %d (source %d): depth(%d) = %d, want %d", k, s, v, got, want)
			}
		}
		// Parents must form a valid tree edge: parent at depth-1 with an
		// edge to the child (any valid parent is acceptable).
		for v := 0; v < g.NumVertices(); v++ {
			d := res.Depth(k, uint32(v))
			if d <= 0 {
				continue
			}
			p := res.Parent(k, uint32(v))
			if p < 0 || ref.Depth(uint32(p)) != d-1 {
				t.Fatalf("lane %d: parent(%d) = %d at depth %d, child depth %d",
					k, v, p, ref.Depth(uint32(p)), d)
			}
			if !g.HasEdge(uint32(p), uint32(v)) {
				t.Fatalf("lane %d: parent edge (%d,%d) not in graph", k, p, v)
			}
		}
	}
}

func TestFullBatchMatchesSerialRMAT(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]uint32, MaxLanes)
	for k := range sources {
		sources[k] = uint32((k * 37) % g.NumVertices())
	}
	res, err := RunContext(context.Background(), g, sources, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkLanesMatchSerial(t, g, res)
	if res.LaneEdges < res.EdgesScanned {
		t.Errorf("LaneEdges %d < EdgesScanned %d: batch shared nothing", res.LaneEdges, res.EdgesScanned)
	}
}

func TestSmallBatchesAndShapes(t *testing.T) {
	grid, err := gen.Grid2D(40, 40, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	stress, err := gen.StressBipartite(2000, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := gen.UniformRandom(3000, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		sources []uint32
	}{
		{"grid-1", grid, []uint32{0}},
		{"grid-3", grid, []uint32{0, 799, 1599}},
		{"stress-5", stress, []uint32{0, 1, 2, 1999, 1000}},
		{"ur-dup", ur, []uint32{5, 5, 9}}, // duplicate sources share a lane mask
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunContext(context.Background(), tc.g, tc.sources, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkLanesMatchSerial(t, tc.g, res)
		})
	}
}

func TestStepsMatchEngineCounting(t *testing.T) {
	// A grid from corner 0 has depth rows+cols-2; the engine counts one
	// extra level for the empty-frontier detection, and so must we.
	g, err := gen.Grid2D(10, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.SerialBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), g, []uint32{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != ref.Steps {
		t.Fatalf("Steps = %d, want %d", res.Steps, ref.Steps)
	}
}

func TestBatchErrors(t *testing.T) {
	g, _ := gen.UniformRandom(100, 4, 1)
	if _, err := RunContext(context.Background(), g, nil, 0); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunContext(context.Background(), g, make([]uint32, MaxLanes+1), 0); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := RunContext(context.Background(), g, []uint32{100}, 0); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	g, _ := gen.UniformRandom(5000, 8, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, []uint32{0, 1, 2, 3}, 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLaneEdgesEqualSumOfSerialRuns(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(10, 8), 5)
	if err != nil {
		t.Fatal(err)
	}
	sources := []uint32{0, 3, 9, 27, 81}
	res, err := RunContext(context.Background(), g, sources, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, s := range sources {
		ref, err := core.SerialBFS(g, s)
		if err != nil {
			t.Fatal(err)
		}
		want += ref.EdgesTraversed
	}
	if res.LaneEdges != want {
		t.Fatalf("LaneEdges = %d, want Σ serial EdgesTraversed = %d", res.LaneEdges, want)
	}
}

func TestDepthsInto(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 13)
	if err != nil {
		t.Fatal(err)
	}
	sources := []uint32{0, 5, 100}
	res, err := RunContext(context.Background(), g, sources, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	dst := make([]uint16, n)
	for lane := range sources {
		maxD, err := res.DepthsInto(lane, dst, 0xFFFF)
		if err != nil {
			t.Fatal(err)
		}
		var wantMax uint32
		for v := 0; v < n; v++ {
			want := res.Depth(lane, uint32(v))
			if want < 0 {
				if dst[v] != 0xFFFF {
					t.Fatalf("lane %d vertex %d: got %d, want unreached", lane, v, dst[v])
				}
				continue
			}
			if int32(dst[v]) != want {
				t.Fatalf("lane %d vertex %d: got %d, want %d", lane, v, dst[v], want)
			}
			if uint32(want) > wantMax {
				wantMax = uint32(want)
			}
		}
		if maxD != wantMax {
			t.Fatalf("lane %d: max depth %d, want %d", lane, maxD, wantMax)
		}
	}
	// Length mismatch and unrepresentable depths are typed errors.
	if _, err := res.DepthsInto(0, dst[:n-1], 0xFFFF); err == nil {
		t.Fatal("short dst accepted")
	}
	if _, err := res.DepthsInto(0, dst, 1); !errors.Is(err, ErrDepthOverflow) {
		t.Fatalf("unreached=1 on a multi-level BFS: got %v, want ErrDepthOverflow", err)
	}
}

// Parent returns lane k's BFS parent of v, or -1 if unreached.
func (r *Result) Parent(lane int, v uint32) int64 {
	dp := r.DP[lane][v]
	if dp == core.INF {
		return -1
	}
	return int64(dp >> 32)
}
