package core

import (
	"math"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// benchLevels runs whole traversals of g from source 0 with the fast
// path forced off ("pbv": serialBelow 0, every level on the cohort) and
// always on ("serial": MaxInt64), reporting the mean cost of a level and
// of an examined edge. The worker count follows GOMAXPROCS: run with
// -cpu 1,2,4.
func benchLevels(b *testing.B, g *graph.Graph) {
	for _, mode := range []struct {
		name        string
		serialBelow int64
	}{{"pbv", 0}, {"serial", math.MaxInt64}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := New(g, DefaultConfig(1))
			if err != nil {
				b.Fatal(err)
			}
			e.serialBelow = mode.serialBelow
			var levels, edges int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				levels += int64(res.Steps)
				edges += res.EdgesTraversed
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(levels), "ns/level")
			b.ReportMetric(ns/float64(edges), "ns/edge")
		})
	}
}

// BenchmarkEmptyLevel prices a level that does nothing: a path graph has
// one vertex and two edges per level, so ns/level is all fixed cost —
// for the cohort seven barrier waits, two layouts and a bin reset. This
// is the floor of that cost: a worker with nothing to do reaches the
// next barrier inside the scheduler's spin window and never parks.
func BenchmarkEmptyLevel(b *testing.B) {
	g, err := gen.Grid2D(1, 4096, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchLevels(b, g)
}

// BenchmarkSmallLevel prices levels that carry a little work, where a
// worker that reaches a barrier early has time to park and every wait
// pays a wake-up: "grid" is the benchmark's offline-grid shape (2,047
// levels of <= 1,024 vertices, ~2K edges each), "rmat" a scale-16 R-MAT
// whose "serial" row gives the fast path's cost per edge on levels of
// any size. serialLevelWork is derived from these rows.
func BenchmarkSmallLevel(b *testing.B) {
	grid, err := gen.Grid2D(1024, 1024, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.Graph500Params(16, 16), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("grid", func(b *testing.B) { benchLevels(b, grid) })
	b.Run("rmat", func(b *testing.B) { benchLevels(b, rmat) })
}
