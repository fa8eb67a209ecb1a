package core

import (
	"fmt"
	"math"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/pbv"
)

// testGraphs returns a small zoo of graphs exercising distinct regimes.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{}
	var err error
	if gs["ur"], err = gen.UniformRandom(5000, 8, 1); err != nil {
		tb.Fatal(err)
	}
	if gs["rmat"], err = gen.RMAT(gen.Graph500Params(12, 8), 2); err != nil {
		tb.Fatal(err)
	}
	if gs["grid"], err = gen.Grid2D(64, 64, 0, 3); err != nil {
		tb.Fatal(err)
	}
	if gs["stress"], err = gen.StressBipartite(4096, 6, 4); err != nil {
		tb.Fatal(err)
	}
	if gs["path"], err = gen.Grid2D(1, 4000, 0, 0); err != nil {
		tb.Fatal(err)
	}
	return gs
}

// serialBounds are the fast-path settings the parity matrices run under:
// off (every level on the cohort — most test graphs are small enough to
// fall entirely under the shipped bound, so without this row the PBV
// path would lose its coverage), the shipped bound, and always on.
var serialBounds = []int64{0, serialLevelWork, math.MaxInt64}

func sameDepths(t *testing.T, g *graph.Graph, want, got *Result, label string) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if want.Depth(uint32(v)) != got.Depth(uint32(v)) {
			t.Fatalf("%s: vertex %d depth = %d, want %d",
				label, v, got.Depth(uint32(v)), want.Depth(uint32(v)))
		}
	}
}

// TestEngineMatchesSerial runs every (VIS, scheme, encoding, workers,
// sockets, fast-path bound) combination on every test graph and demands
// exact depth equality with the serial reference.
func TestEngineMatchesSerial(t *testing.T) {
	for name, g := range testGraphs(t) {
		ref, err := SerialBFS(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, vis := range []VISKind{VISNone, VISAtomicBit, VISByte, VISBit, VISPartitioned} {
			for _, scheme := range []Scheme{SchemeSinglePhase, SchemeSocketAware, SchemeLoadBalanced} {
				for _, enc := range []pbv.Encoding{pbv.EncodingMarker, pbv.EncodingPair} {
					for _, workers := range []int{1, 3, 8} {
						for _, sockets := range []int{1, 2} {
							if workers < sockets {
								continue
							}
							label := fmt.Sprintf("%s/%v/%v/%v/w%d/s%d",
								name, vis, scheme, enc, workers, sockets)
							cfg := Config{
								Workers: workers, Sockets: sockets,
								VIS: vis, Scheme: scheme, Encoding: enc,
								Rearrange: true, BatchBinning: workers%2 == 0,
								PrefetchDist: 4,
								CacheBytes:   1 << 12, // tiny LLC: forces N_VIS > 1
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
								if res.Visited != ref.Visited {
									t.Fatalf("%s: visited %d, want %d", label, res.Visited, ref.Visited)
								}
								if res.Steps != ref.Steps {
									t.Fatalf("%s: %d steps, want %d", label, res.Steps, ref.Steps)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestEngineReuse checks that one engine produces correct results for
// several roots in sequence (buffer reuse).
func TestEngineReuse(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []uint32{0, 1, 17, 500, 2047} {
		ref, err := SerialBFS(g, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		sameDepths(t, g, ref, res, fmt.Sprintf("src=%d", src))
	}
}
