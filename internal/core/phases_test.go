package core

import (
	"testing"

	"fastbfs/graph/gen"
	"fastbfs/internal/pbv"
)

// runOnePhase1 drives a single Phase-I over a seeded frontier and
// returns the engine for bin inspection. Uses one worker so the full
// frontier lands in its bins.
func runOnePhase1(t *testing.T, enc pbv.Encoding, batch bool) *Engine {
	t.Helper()
	g, err := gen.UniformRandom(4096, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers: 1, Sockets: 1, VIS: VISPartitioned,
		Scheme: SchemeLoadBalanced, Encoding: enc,
		BatchBinning: batch, CacheBytes: 1 << 12, // several partitions
	}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a frontier of a few vertices and run Phase-I by hand.
	e.cur.Arrays[0] = append(e.cur.Arrays[0][:0], 1, 2, 3, 100, 2000)
	e.curLayout.Build(e.cur)
	e.phase1(e.ws[0], 1)
	return e
}

// TestPhase1MarkerInvariants: in the marker encoding, every bin starts
// with a marker, every vertex entry is preceded (somewhere) by its
// parent's marker, and every entry's bin matches its vertex range.
func TestPhase1MarkerInvariants(t *testing.T) {
	for _, batch := range []bool{false, true} {
		e := runOnePhase1(t, pbv.EncodingMarker, batch)
		frontier := map[uint32]bool{1: true, 2: true, 3: true, 100: true, 2000: true}
		totalEntries := 0
		for b, bin := range e.ws[0].bins.Bins {
			if len(bin) == 0 {
				continue
			}
			if !pbv.IsMarker(bin[0]) {
				t.Fatalf("batch=%v bin %d does not start with a marker", batch, b)
			}
			var parent uint32
			seenVertex := false
			for _, x := range bin {
				if pbv.IsMarker(x) {
					parent = pbv.DecodeMarker(x)
					if !frontier[parent] {
						t.Fatalf("batch=%v marker for non-frontier parent %d", batch, parent)
					}
					continue
				}
				seenVertex = true
				totalEntries++
				if int(x>>e.geo.binShift) != b {
					t.Fatalf("batch=%v vertex %d landed in bin %d, want %d",
						batch, x, b, x>>e.geo.binShift)
				}
				// The current parent must actually have x as a neighbor.
				found := false
				for _, w := range e.g.Neighbors1(parent) {
					if w == x {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("batch=%v entry %d attributed to non-parent %d", batch, x, parent)
				}
			}
			if !seenVertex {
				t.Fatalf("batch=%v bin %d holds only markers", batch, b)
			}
		}
		if totalEntries != 5*12 {
			t.Fatalf("batch=%v binned %d vertex entries, want %d", batch, totalEntries, 5*12)
		}
	}
}

// TestPhase1PairInvariants: in the pair encoding every bin has even
// length and each (parent, vertex) pair is a real edge in the right bin.
func TestPhase1PairInvariants(t *testing.T) {
	e := runOnePhase1(t, pbv.EncodingPair, false)
	total := 0
	for b, bin := range e.ws[0].bins.Bins {
		if len(bin)%2 != 0 {
			t.Fatalf("bin %d has odd length %d", b, len(bin))
		}
		for i := 0; i < len(bin); i += 2 {
			parent, v := bin[i], bin[i+1]
			if int(v>>e.geo.binShift) != b {
				t.Fatalf("vertex %d in bin %d, want %d", v, b, v>>e.geo.binShift)
			}
			if !e.g.HasEdge(parent, v) {
				t.Fatalf("pair (%d,%d) is not an edge", parent, v)
			}
			total++
		}
	}
	if total != 5*12 {
		t.Fatalf("binned %d pairs, want %d", total, 5*12)
	}
}

// TestPhase1EdgeCount: the per-worker edge counter equals the summed
// degree of the frontier.
func TestPhase1EdgeCount(t *testing.T) {
	e := runOnePhase1(t, pbv.EncodingMarker, false)
	if e.ws[0].edges != 5*12 {
		t.Fatalf("edges = %d, want %d", e.ws[0].edges, 5*12)
	}
}

// TestLazyMarkersSaveSpace: the lazy marker emission must write no more
// than one marker per (parent, touched bin) pair — strictly fewer
// entries than the paper's eager enqueue-into-every-bin variant when a
// parent's neighbors miss some bins.
func TestLazyMarkersSaveSpace(t *testing.T) {
	e := runOnePhase1(t, pbv.EncodingMarker, false)
	nVIS, nPBV := e.Geometry()
	_ = nVIS
	entries := e.ws[0].bins.Entries()
	eager := int64(5*nPBV + 5*12) // markers in every bin + all neighbors
	if entries > eager {
		t.Fatalf("entries %d exceed eager bound %d", entries, eager)
	}
	if entries < 5*12 {
		t.Fatalf("entries %d below neighbor count", entries)
	}
}
