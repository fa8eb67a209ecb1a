package core

import (
	"testing"
	"testing/quick"

	"fastbfs/graph/gen"
	"fastbfs/internal/numa"
	"fastbfs/internal/pbv"
)

func TestPackDPRoundTrip(t *testing.T) {
	f := func(parent, depth uint32) bool {
		p, d := UnpackDP(PackDP(parent, depth))
		return p == parent && d == depth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// INF is not a reachable packed value for valid ids/depths: parent
	// ids stay below 2^31 (graph.MaxVertices).
	if PackDP(1<<31-1, ^uint32(0)) == INF {
		t.Error("valid pack collides with INF")
	}
}

func TestConfigValidation(t *testing.T) {
	g, _ := gen.UniformRandom(100, 4, 1)
	bad := []Config{
		{Sockets: 3},              // not a power of two
		{Sockets: 2, Workers: -1}, // withDefaults clamps Workers>=Sockets, so force negative
	}
	for i, cfg := range bad {
		if i == 1 {
			// Workers below Sockets is raised, not an error; force an
			// invalid value that survives defaulting.
			c := cfg.withDefaults()
			c.Workers = 0
			if err := c.validate(g); err == nil {
				t.Errorf("case %d: invalid config accepted", i)
			}
			continue
		}
		if _, err := New(g, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(g, Config{VIS: VISKind(42)}); err == nil {
		t.Error("unknown VIS accepted")
	}
	if _, err := New(g, Config{Scheme: Scheme(42)}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers < 1 || c.Sockets != 1 {
		t.Errorf("defaults: %+v", c)
	}
	if c.CacheBytes != 8<<20 || c.L2Bytes != 256<<10 {
		t.Errorf("cache defaults: %+v", c)
	}
	if c.PageBytes != 4096 || c.TLBEntries != 64 {
		t.Errorf("TLB defaults: %+v", c)
	}
	// Workers never below sockets.
	c = Config{Workers: 1, Sockets: 4}.withDefaults()
	if c.Workers < 4 {
		t.Errorf("workers %d < sockets", c.Workers)
	}
}

// TestGeometry checks the paper's §III-C(1) bin arithmetic: N_PBV =
// N_S * next_pow2(N_VIS), bins align with sockets, and every vertex maps
// to a valid bin on its home socket.
func TestGeometry(t *testing.T) {
	for _, tc := range []struct {
		vertices   int
		sockets    int
		cacheBytes int64
		vis        VISKind
		wantNVIS   int
	}{
		{1 << 16, 2, 8 << 20, VISPartitioned, 1},
		{1 << 20, 2, 1 << 12, VISPartitioned, 64}, // 128 KiB VIS / 2 KiB half-LLC
		{1 << 20, 2, 8 << 20, VISBit, 1},          // unpartitioned kinds force 1
		{1 << 16, 4, 1 << 10, VISPartitioned, 16},
	} {
		g, err := gen.UniformRandom(tc.vertices, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Sockets: tc.sockets, Workers: tc.sockets, VIS: tc.vis,
			Scheme: SchemeLoadBalanced, CacheBytes: tc.cacheBytes}
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nVIS, nPBV := e.Geometry()
		if nVIS != tc.wantNVIS {
			t.Errorf("V=%d C=%d: N_VIS = %d, want %d", tc.vertices, tc.cacheBytes, nVIS, tc.wantNVIS)
		}
		if nPBV%tc.sockets != 0 {
			t.Errorf("N_PBV %d not a multiple of sockets %d", nPBV, tc.sockets)
		}
		perSocket := nPBV / tc.sockets
		if perSocket&(perSocket-1) != 0 {
			t.Errorf("bins per socket %d not a power of two", perSocket)
		}
		// Every vertex's bin lies in its home socket's bin range.
		topo, _ := numa.NewTopology(tc.vertices, tc.sockets, tc.sockets)
		for v := 0; v < tc.vertices; v += tc.vertices/97 + 1 {
			b := int(uint32(v) >> e.geo.binShift)
			if b >= nPBV {
				t.Fatalf("vertex %d bin %d out of range %d", v, b, nPBV)
			}
			if got, want := b>>e.geo.extraBits, topo.HomeSocket(uint32(v)); got != want {
				t.Fatalf("vertex %d bin %d maps to socket %d, home %d", v, b, got, want)
			}
		}
	}
}

// TestEncodingResolution checks the footnote-4 auto heuristic as the
// engine applies it.
func TestEncodingResolution(t *testing.T) {
	dense, _ := gen.UniformRandom(1<<14, 32, 1)
	e, err := New(dense, Config{Sockets: 2, Workers: 2, VIS: VISPartitioned})
	if err != nil {
		t.Fatal(err)
	}
	if e.enc != pbv.EncodingMarker {
		t.Errorf("dense graph: encoding %v, want marker (N_PBV=2 < deg 32)", e.enc)
	}
	sparse, _ := gen.UniformRandom(1<<20, 2, 1)
	e, err = New(sparse, Config{Sockets: 2, Workers: 2, VIS: VISPartitioned,
		CacheBytes: 1 << 12}) // many partitions -> many bins
	if err != nil {
		t.Fatal(err)
	}
	if e.enc != pbv.EncodingPair {
		t.Errorf("sparse graph with many bins: encoding %v, want pair", e.enc)
	}
}

// TestInstrumentConsistency: trace totals must agree with the Result
// counters, and the per-step alphas must be sane probabilities.
func TestInstrumentConsistency(t *testing.T) {
	g, _ := gen.RMAT(gen.Graph500Params(12, 8), 5)
	cfg := DefaultConfig(2)
	cfg.Instrument = true
	cfg.Workers = 4
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Trace
	if rt == nil {
		t.Fatal("no trace")
	}
	if rt.TotalEdges != res.EdgesTraversed {
		t.Errorf("trace edges %d != %d", rt.TotalEdges, res.EdgesTraversed)
	}
	if rt.TotalVertices != res.Appends-1 { // trace excludes the seeded source
		t.Errorf("trace vertices %d, appends %d", rt.TotalVertices, res.Appends)
	}
	for _, s := range rt.Steps {
		for name, a := range map[string]float64{
			"adj": s.AlphaAdj, "pbv": s.AlphaPBV, "dp": s.AlphaDP,
		} {
			if a < 0.5-1e-9 || a > 1+1e-9 {
				t.Errorf("step %d: alpha %s = %v outside [1/2, 1]", s.Step, name, a)
			}
		}
		if s.SharedBins > 1 { // 2 sockets: at most N_S-1 = 1 shared bin
			t.Errorf("step %d: %d shared bins with 2 sockets", s.Step, s.SharedBins)
		}
	}
}

// TestStressAlphaIsSkewed: on the bipartite stress graph every step's
// frontier lives on one socket, so the per-step α must be ~1 even though
// the run aggregate is balanced — the distinction the paper draws.
func TestStressAlphaIsSkewed(t *testing.T) {
	g, err := gen.StressBipartite(1<<14, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Instrument = true
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Trace
	w := rt.WeightedAlpha(numa.StructAdj, 2)
	if w < 0.95 {
		t.Errorf("stress per-step weighted alphaAdj = %v, want ~1", w)
	}
	agg := rt.Alpha(numa.StructAdj, 2)
	if agg > 0.65 {
		t.Errorf("stress run-aggregate alphaAdj = %v, want ~0.5 (sides alternate)", agg)
	}
}

// TestMaxStepsGuard: an engine with MaxSteps below the graph depth must
// fail loudly instead of looping.
func TestMaxStepsGuard(t *testing.T) {
	g, _ := gen.Grid2D(1, 100, 0, 1) // a path: depth 99
	cfg := DefaultConfig(1)
	cfg.MaxSteps = 5
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Error("step-limit overrun not reported")
	}
}

// TestMaxSocketShare: the static scheme's imbalance on the stress graph
// must register near 1.0 per step (one socket owns every entry), while
// the load-balanced division stays at ~1/N_S — the exact contrast
// Figure 5 measures.
func TestMaxSocketShare(t *testing.T) {
	g, err := gen.StressBipartite(1<<14, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares := func(scheme Scheme) (min, max float64) {
		cfg := DefaultConfig(2)
		cfg.Scheme = scheme
		cfg.Instrument = true
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		min, max = 2, 0
		for _, s := range res.Trace.Steps {
			// Tiny steps (a handful of entries) round unevenly; the
			// balance property concerns substantial steps.
			if s.PBVEntries < 100 {
				continue
			}
			if s.MaxSocketShare < min {
				min = s.MaxSocketShare
			}
			if s.MaxSocketShare > max {
				max = s.MaxSocketShare
			}
		}
		return min, max
	}
	_, awareMax := shares(SchemeSocketAware)
	if awareMax < 0.95 {
		t.Errorf("static scheme max share = %v, want ~1 on stress graph", awareMax)
	}
	lbMin, lbMax := shares(SchemeLoadBalanced)
	if lbMax > 0.55 || lbMin < 0.45 {
		t.Errorf("balanced shares [%v, %v], want ~0.5", lbMin, lbMax)
	}
}
