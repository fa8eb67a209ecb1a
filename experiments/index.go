package experiments

// Distance-oracle index benchmark: the build cost and point-query
// throughput of the landmark labeling (package index) against the
// obvious alternative for a point distance — one direction-optimizing
// hybrid BFS per query. The oracle answers from two label merge-joins;
// the BFS touches the whole reachable component. The interesting
// numbers are the QPS ratio and what fraction of random pairs the
// labeling certifies exactly (uncertified pairs fall back to a BFS in
// the serving layer, so the effective speedup interpolates with the
// exact rate).

import (
	"context"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/index"
	"fastbfs/internal/stats"
	"fastbfs/internal/xrand"
)

// IndexBench is the distance-oracle section of the benchmark artifact
// (BENCH_<scale>.json) and the per-policy row of `bfsbench index`.
type IndexBench struct {
	Landmarks int    `json:"landmarks"`
	Policy    string `json:"policy"`
	// Build cost and label footprint.
	BuildMS          float64 `json:"build_ms"`
	LabelBytes       int64   `json:"label_bytes"`
	EntriesPerVertex float64 `json:"entries_per_vertex"`
	// Point-query throughput over a fixed random-pair workload.
	Queries   int     `json:"queries"`
	ExactRate float64 `json:"exact_rate"` // fraction certified (no fallback)
	IndexQPS  float64 `json:"index_qps"`
	BFSQPS    float64 `json:"bfs_qps"` // one hybrid BFS per point query
	// QPSSpeedup is IndexQPS / BFSQPS — the headline oracle win.
	QPSSpeedup float64 `json:"qps_speedup"`
}

// indexBench builds one labeling over g and measures it against
// per-query hybrid BFS on a shared random-pair workload.
func indexBench(cfg Config, g *graph.Graph, pol index.Policy) (*IndexBench, error) {
	opts := cfg.options(bfs.VISPartitioned, bfs.SchemeLoadBalanced, 1)
	opts.Hybrid = true

	// Share the cached transpose between the build's backward sweeps
	// and the hybrid engine's bottom-up levels, as the daemon does.
	in := bfs.InAdjacency(g)
	start := time.Now()
	ix, err := index.Build(context.Background(), g, index.Options{
		Policy:  pol,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		In:      in,
	})
	if err != nil {
		return nil, err
	}
	buildMS := float64(time.Since(start).Microseconds()) / 1e3

	n := g.NumVertices()
	rng := xrand.New(cfg.Seed ^ 0x1db31db3)
	pairs := make([][2]uint32, 1<<15)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}

	// Oracle side: every pair, timed; the sink keeps the joins live.
	var exact int
	var sink int64
	qStart := time.Now()
	for _, p := range pairs {
		a := ix.Query(p[0], p[1])
		sink += int64(a.Dist)
		if a.Exact {
			exact++
		}
	}
	qElapsed := time.Since(qStart)

	// BFS side: one full hybrid traversal per point query. A handful of
	// runs gives a stable per-query cost — each run is milliseconds.
	e, err := bfs.NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(pairs[0][0]); err != nil { // warmup
		return nil, err
	}
	bfsRuns := min(len(pairs), 24)
	bStart := time.Now()
	for i := 0; i < bfsRuns; i++ {
		res, err := e.Run(pairs[i][0])
		if err != nil {
			return nil, err
		}
		sink += int64(res.Depth(pairs[i][1]))
	}
	bElapsed := time.Since(bStart)
	_ = sink

	indexQPS := float64(len(pairs)) / qElapsed.Seconds()
	bfsQPS := float64(bfsRuns) / bElapsed.Seconds()
	return &IndexBench{
		Landmarks:        len(ix.Landmarks),
		Policy:           ix.Policy.String(),
		BuildMS:          buildMS,
		LabelBytes:       ix.LabelBytes(),
		EntriesPerVertex: float64(ix.Entries()) / float64(n),
		Queries:          len(pairs),
		ExactRate:        float64(exact) / float64(len(pairs)),
		IndexQPS:         indexQPS,
		BFSQPS:           bfsQPS,
		QPSSpeedup:       stats.Ratio(indexQPS, bfsQPS),
	}, nil
}

// Index benchmarks the landmark oracle on the hybrid ablation graph,
// one row per selection policy.
func Index(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	g, err := hybridGraph(cfg)
	if err != nil {
		return nil, err
	}
	defer bfs.ReleaseInAdjacency(g)
	t := stats.NewTable("policy", "landmarks", "build ms", "label KiB",
		"entries/v", "exact %", "index QPS", "BFS QPS", "speedup")
	for _, pol := range []index.Policy{index.PolicyDegree, index.PolicyRandom} {
		b, err := indexBench(cfg, g, pol)
		if err != nil {
			return nil, err
		}
		cfg.logf("index: %s: build %.0fms, %.1f entries/v, %.0f%% exact, %.0fx QPS",
			b.Policy, b.BuildMS, b.EntriesPerVertex, 100*b.ExactRate, b.QPSSpeedup)
		t.AddRow(b.Policy, b.Landmarks, b.BuildMS, float64(b.LabelBytes)/1024,
			b.EntriesPerVertex, 100*b.ExactRate, b.IndexQPS, b.BFSQPS, b.QPSSpeedup)
	}
	return t, nil
}
