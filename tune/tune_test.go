package tune

import (
	"encoding/json"
	"reflect"
	"testing"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// knobs projects a profile onto just its engine knobs, for equality
// against Defaults() regardless of provenance fields.
func knobs(p *Profile) Profile {
	return Profile{
		Hybrid: p.Hybrid, Alpha: p.Alpha, Beta: p.Beta,
		VIS: p.VIS, PrefetchDist: p.PrefetchDist, BatchBinning: p.BatchBinning,
	}
}

// mustGraph fails the test on a generator error.
func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// starGraph builds a symmetric hub-and-spokes star on n vertices.
func starGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	degrees := make([]int32, n)
	degrees[0] = int32(n - 1)
	for v := 1; v < n; v++ {
		degrees[v] = 1
	}
	g, err := graph.FromDegrees(degrees, func(v uint32, adj []uint32) {
		if v == 0 {
			for i := range adj {
				adj[i] = uint32(i + 1)
			}
			return
		}
		adj[0] = 0
	})
	return mustGraph(t)(g, err)
}

// forestGraph builds disjoint bidirectional chains (disconnected).
func forestGraph(t *testing.T, chains, per int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for c := 0; c < chains; c++ {
		base := c * per
		for i := 0; i < per-1; i++ {
			u, v := uint32(base+i), uint32(base+i+1)
			edges = append(edges, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
		}
	}
	g, err := graph.FromEdges(chains*per, edges)
	return mustGraph(t)(g, err)
}

// TestCornerCasesStayOnDefaults is the >5%-regression guarantee for the
// degenerate suite, made timing-free: on graphs too small or too
// pathological for the model's signal to beat noise, the tuner must
// return EXACTLY the default knobs (zero possible regression) and must
// never panic.
func TestCornerCasesStayOnDefaults(t *testing.T) {
	empty := mustGraph(t)(graph.FromEdges(0, nil))
	single := mustGraph(t)(graph.FromEdges(1, nil))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"nil", nil},
		{"empty", empty},
		{"single-vertex", single},
		{"star", starGraph(t, 512)},
		{"disconnected-forest", forestGraph(t, 16, 32)},
	}
	want := knobs(Defaults())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof := Calibrate(tc.g, Options{})
			if prof == nil {
				t.Fatal("Calibrate returned nil")
			}
			if got := knobs(prof); got != want {
				t.Errorf("knobs deviated from defaults: got %+v want %+v", got, want)
			}
			if prof.Source == SourceCalibrated && tc.g != nil && tc.g.NumVertices() < MinVertices {
				t.Errorf("tiny graph reported as calibrated")
			}
		})
	}
}

// TestCalibrateDeterministic pins that two passes over the same graph
// agree — calibration must not depend on timing or randomness, or the
// journaled profile would diverge from a recalibration.
func TestCalibrateDeterministic(t *testing.T) {
	g := mustGraph(t)(gen.RMAT(gen.RMATParams{A: 0.57, B: 0.19, C: 0.19, Scale: 12, EdgeFactor: 16}, 7))
	a := Calibrate(g, Options{})
	b := Calibrate(g, Options{})
	a.CalibrationMS, b.CalibrationMS = 0, 0 // the only wall-clock field
	if !reflect.DeepEqual(a, b) {
		t.Errorf("calibration not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}

// TestProfileJSONRoundTrip pins that a journaled profile restores all
// knob and provenance fields.
func TestProfileJSONRoundTrip(t *testing.T) {
	g := mustGraph(t)(gen.RMAT(gen.RMATParams{A: 0.57, B: 0.19, C: 0.19, Scale: 12, EdgeFactor: 16}, 7))
	prof := Calibrate(g, Options{})
	blob, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*prof, back) {
		t.Errorf("JSON round trip changed the profile:\n in=%+v\nout=%+v", *prof, back)
	}
}

// TestApplyPreservesIdentityFields pins the Apply contract: the profile
// tunes how a traversal runs, never what it runs on.
func TestApplyPreservesIdentityFields(t *testing.T) {
	base := bfs.Default(2)
	base.Workers = 7
	base.CacheBytes = 1 << 16
	base.L2Bytes = 1 << 12
	base.Symmetric = true
	base.Instrument = true

	prof := &Profile{Hybrid: true, Alpha: 30, VIS: VISNameByte, PrefetchDist: 0}
	got := prof.Apply(base)
	if got.Workers != 7 || got.Sockets != 2 || got.CacheBytes != 1<<16 ||
		got.L2Bytes != 1<<12 || !got.Symmetric || !got.Instrument {
		t.Errorf("Apply clobbered identity fields: %+v", got)
	}
	if !got.Hybrid || got.Alpha != 30 || got.VIS != bfs.VISByte || got.PrefetchDist != 0 {
		t.Errorf("Apply did not set knobs: %+v", got)
	}
	if nilApplied := (*Profile)(nil).Apply(base); !reflect.DeepEqual(nilApplied, base) {
		t.Errorf("nil profile must be the identity")
	}
	if unknownVIS := (&Profile{VIS: "from-the-future"}).Apply(base); unknownVIS.VIS != base.VIS {
		t.Errorf("unknown VIS name must keep the base VIS, got %v", unknownVIS.VIS)
	}
}

// TestVISNameMapping pins the name->kind mapping: every profile name
// parses to its own kind, and unknown names are refused.
func TestVISNameMapping(t *testing.T) {
	want := map[string]bfs.VISKind{
		VISNameNone:        bfs.VISNone,
		VISNameAtomicBit:   bfs.VISAtomicBit,
		VISNameByte:        bfs.VISByte,
		VISNameBit:         bfs.VISBit,
		VISNamePartitioned: bfs.VISPartitioned,
	}
	for name, kind := range want {
		k, ok := VISKindFromName(name)
		if !ok {
			t.Fatalf("profile name %q not parsed", name)
		}
		if k != kind {
			t.Errorf("VISKindFromName(%q) = %v, want %v", name, k, kind)
		}
	}
	if _, ok := VISKindFromName("nope"); ok {
		t.Error("unknown VIS name parsed")
	}
}

// TestCalibrateRMATPicksHybridAndStaysExact is the tuner's end-to-end
// check on the workload it exists for: a scale-14 R-MAT must calibrate
// (not bail to defaults), choose the direction-optimizing hybrid (the
// measured ~4-5x win on this shape), and — the part that matters — an
// engine built from the profile must produce depths identical to the
// serial reference. Tuning may only change speed, never answers.
func TestCalibrateRMATPicksHybridAndStaysExact(t *testing.T) {
	g := mustGraph(t)(gen.RMAT(gen.RMATParams{A: 0.57, B: 0.19, C: 0.19, Scale: 14, EdgeFactor: 16}, 20120521+42))
	prof := Calibrate(g, Options{})
	if prof.Source != SourceCalibrated {
		t.Fatalf("scale-14 R-MAT should calibrate, got source %q", prof.Source)
	}
	if !prof.Hybrid {
		t.Errorf("model should enable hybrid on the R-MAT shape: %s", prof.Summary())
	}
	if prof.PredictedMTEPS < prof.DefaultPredictedMTEPS {
		t.Errorf("chosen profile predicts worse than default: %.1f < %.1f",
			prof.PredictedMTEPS, prof.DefaultPredictedMTEPS)
	}
	if prof.BatchWidth < 1 || prof.BatchWidth > 64 {
		t.Errorf("batch width out of range: %d", prof.BatchWidth)
	}

	opts := prof.Apply(bfs.Default(1))
	e, err := bfs.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	source := uint32(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 64 {
			source = uint32(v)
			break
		}
	}
	res, err := e.RunContext(t.Context(), source)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bfs.RunSerial(g, source)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := res.Depth(uint32(v)), ref.Depth(uint32(v)); got != want {
			t.Fatalf("tuned engine depth mismatch at v=%d: got %d want %d", v, got, want)
		}
	}
}

// TestBatchWidthBudget pins the lane clamp: a graph large enough that 64
// lanes of 8-byte state would blow the budget gets a narrower width.
func TestBatchWidthBudget(t *testing.T) {
	opt := Options{LaneMemBudget: 1 << 20, MaxBatch: 64} // 1 MiB budget
	if w := laneWidth(1<<20, opt.withDefaults()); w != 1 {
		// 8 bytes/vertex/lane * 1M vertices = 8 MiB/lane > 1 MiB budget
		t.Errorf("laneWidth = %d, want 1", w)
	}
	if w := laneWidth(1024, opt.withDefaults()); w != 64 {
		t.Errorf("laneWidth small graph = %d, want 64", w)
	}
}
