package core_test

import (
	"fmt"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/core"
	"fastbfs/internal/validate"
)

// cohortGraphs are the shapes the single-phase level must handle: a grid
// (many near-empty levels), a path (one vertex a level, so all but one
// worker idle), a star (one level of one hub vertex and a wide level of
// degree-1 leaves) and an R-MAT (skewed degrees, wide levels).
func cohortGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	var err error
	if gs["grid"], err = gen.Grid2D(96, 96, 0, 0); err != nil {
		t.Fatal(err)
	}
	if gs["path"], err = gen.Grid2D(1, 3000, 0, 0); err != nil {
		t.Fatal(err)
	}
	star := make([]graph.Edge, 0, 4095)
	for v := uint32(1); v < 4096; v++ {
		star = append(star, graph.Edge{U: 0, V: v})
	}
	out, err := graph.FromEdges(4096, star)
	if err != nil {
		t.Fatal(err)
	}
	gs["star"] = out.Symmetrize()
	if gs["rmat"], err = gen.RMAT(gen.Graph500Params(13, 16), 5); err != nil {
		t.Fatal(err)
	}
	return gs
}

// TestSinglePhaseCohort runs cohort top-down levels at W=1,2,4 under both
// geometries — one PBV bin, where the level is single-phase, and N_PBV >
// 1 (a tiny LLC), where it keeps the paper's two phases — with the fast
// path off and at the shipped bound. Depths must equal SerialBFS, the
// tree must pass internal/validate, and duplicate claims (Appends −
// Visited, the benign race) must stay within 1 % of Visited.
func TestSinglePhaseCohort(t *testing.T) {
	for name, g := range cohortGraphs(t) {
		sources := []uint32{0, uint32(g.NumVertices() / 2)}
		for _, geo := range []struct {
			name     string
			cache    int64
			twoPhase bool
		}{{"nPBV=1", 0, false}, {"nPBV>1", 256, true}} {
			for _, workers := range []int{1, 2, 4} {
				cfg := core.DefaultConfig(1)
				cfg.Workers = workers
				cfg.CacheBytes = geo.cache
				e, err := core.New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if e.TwoPhase() != geo.twoPhase {
					nVIS, nPBV := e.Geometry()
					t.Fatalf("%s/%s: twoPhase = %v with N_VIS=%d N_PBV=%d", name, geo.name, e.TwoPhase(), nVIS, nPBV)
				}
				for _, bound := range []int64{0, core.SerialLevelWork} {
					e.SetSerialBelow(bound)
					for _, src := range sources {
						label := fmt.Sprintf("%s/%s/w%d/serial<%d/src=%d", name, geo.name, workers, bound, src)
						ref, err := core.SerialBFS(g, src)
						if err != nil {
							t.Fatal(err)
						}
						res, err := e.Run(src)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := validate.SameDepths(ref, res); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := validate.Result(g, res); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if dup := res.Appends - res.Visited; dup < 0 || 100*dup > res.Visited {
							t.Fatalf("%s: %d appends for %d visited vertices", label, res.Appends, res.Visited)
						}
					}
				}
			}
		}
	}
}
