package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/msbfs"
)

// benchRMAT caches the benchmark graph across benchmark functions.
var (
	benchOnce  sync.Once
	benchG     *graph.Graph
	benchSrcs  []uint32
	benchScale = 16
)

func benchGraph(b *testing.B) (*graph.Graph, []uint32) {
	b.Helper()
	benchOnce.Do(func() {
		g, err := gen.RMAT(gen.Graph500Params(benchScale, 16), 7)
		if err != nil {
			panic(err)
		}
		benchG = g
		benchSrcs = make([]uint32, msbfs.MaxLanes)
		for k := range benchSrcs {
			benchSrcs[k] = uint32((k*2654435761 + 13) % g.NumVertices())
		}
	})
	return benchG, benchSrcs
}

// BenchmarkBatch64Sweep is the batched path of the acceptance pair: 64
// sources answered by one bit-parallel sweep. Compare its
// "aggMTEPS" metric against BenchmarkBatch64Sequential's.
func BenchmarkBatch64Sweep(b *testing.B) {
	g, srcs := benchGraph(b)
	var agg float64
	var edges int64
	for i := 0; i < b.N; i++ {
		res, err := msbfs.RunContext(context.Background(), g, srcs, 0)
		if err != nil {
			b.Fatal(err)
		}
		agg += float64(res.LaneEdges) / res.Elapsed.Seconds() / 1e6
		edges += res.LaneEdges
	}
	b.ReportMetric(agg/float64(b.N), "aggMTEPS")
	b.ReportMetric(float64(edges)/float64(b.N), "laneEdges/op")
}

// BenchmarkBatch64Sequential answers the same 64 sources one at a time
// on a single reused engine — the no-batching baseline.
func BenchmarkBatch64Sequential(b *testing.B) {
	g, srcs := benchGraph(b)
	e, err := bfs.NewEngine(g, bfs.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	var agg float64
	for i := 0; i < b.N; i++ {
		var edges int64
		var secs float64
		for _, s := range srcs {
			res, err := e.Run(s)
			if err != nil {
				b.Fatal(err)
			}
			edges += res.EdgesTraversed
			secs += res.Elapsed.Seconds()
		}
		agg += float64(edges) / secs / 1e6
	}
	b.ReportMetric(agg/float64(b.N), "aggMTEPS")
}

// BenchmarkServiceThroughput pushes concurrent clients through the full
// scheduler (cache disabled so every query traverses) and reports
// queries per second.
func BenchmarkServiceThroughput(b *testing.B) {
	g, _ := benchGraph(b)
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s := New(Config{CacheEntries: -1, BatchThreshold: 4})
			if err := s.AddGraph("g", g); err != nil {
				b.Fatal(err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + clients - 1) / clients
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						src := uint32(((c*per+i)*40503 + 1) % g.NumVertices())
						if _, err := s.Query(context.Background(), Request{Graph: "g", Source: src}); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}
