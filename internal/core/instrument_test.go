package core

import (
	"reflect"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/numa"
)

// TestDirectChargesMatchVisit pins the traffic of an instrumented
// single-phase level. The bit kinds claim in direct's claimBit loop and
// charge each frontier slice after it (chargeExpansion); VISByte charges
// every access inside visit. Where nothing races both claim the same
// vertices in the same order, so the run's traffic and every level's α
// must be equal. Sockets 2 forces a second worker; on a tree no vertex
// has two neighbors in one level, so no two workers can claim the same
// vertex and the runs stay deterministic.
func TestDirectChargesMatchVisit(t *testing.T) {
	rmat, err := gen.RMAT(gen.Graph500Params(12, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A symmetric 4-ary tree rooted at 0.
	const treeN = 5000
	var edges []graph.Edge
	for v := uint32(1); v < treeN; v++ {
		p := (v - 1) / 4
		edges = append(edges, graph.Edge{U: p, V: v}, graph.Edge{U: v, V: p})
	}
	tree, err := graph.FromEdges(treeN, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		sockets int
	}{
		{"rmat/sockets1", rmat, 1},
		{"tree/sockets1", tree, 1},
		{"tree/sockets2", tree, 2},
	} {
		run := func(kind VISKind) *Result {
			cfg := DefaultConfig(tc.sockets)
			cfg.Workers = 1
			cfg.Scheme = SchemeSinglePhase
			cfg.VIS = kind
			cfg.Instrument = true
			e, err := New(tc.g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.serialBelow = 0 // every level on the cohort, through direct
			res, err := e.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bit, byt := run(VISBit), run(VISByte)
		if bit.Trace.Traffic.Total(numa.StructVIS) == 0 || bit.Trace.Traffic.Total(numa.StructAdj) == 0 {
			t.Fatalf("%s: VISBit run charged no VIS or Adj traffic", tc.name)
		}
		if !reflect.DeepEqual(bit.Trace.Traffic, byt.Trace.Traffic) {
			for _, st := range numa.Structures() {
				t.Errorf("%s: %s: VISBit %d bytes (α %.4f), VISByte %d (α %.4f)", tc.name, st,
					bit.Trace.Traffic.Total(st), bit.Trace.Traffic.Alpha(st),
					byt.Trace.Traffic.Total(st), byt.Trace.Traffic.Alpha(st))
			}
			continue
		}
		if len(bit.Trace.Steps) != len(byt.Trace.Steps) {
			t.Fatalf("%s: VISBit ran %d levels, VISByte %d", tc.name, len(bit.Trace.Steps), len(byt.Trace.Steps))
		}
		for i, b := range bit.Trace.Steps {
			y := byt.Trace.Steps[i]
			if b.Serial {
				t.Fatalf("%s: level %d ran on the fast path", tc.name, b.Step)
			}
			if b.AlphaAdj != y.AlphaAdj || b.AlphaPBV != y.AlphaPBV || b.AlphaDP != y.AlphaDP {
				t.Errorf("%s: level %d α (Adj, PBV, DP): VISBit (%v, %v, %v), VISByte (%v, %v, %v)", tc.name, b.Step,
					b.AlphaAdj, b.AlphaPBV, b.AlphaDP, y.AlphaAdj, y.AlphaPBV, y.AlphaDP)
			}
		}
	}
}
