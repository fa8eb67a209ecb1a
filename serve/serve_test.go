package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// testGraph is a small RMAT graph shared by most tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestService(t testing.TB, g *graph.Graph, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	if err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func serialDepths(t testing.TB, g *graph.Graph, source uint32) []int32 {
	t.Helper()
	ref, err := bfs.RunSerial(g, source)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, g.NumVertices())
	for v := range out {
		out[v] = ref.Depth(uint32(v))
	}
	return out
}

func TestQueryMatchesSerial(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{})
	want := serialDepths(t, g, 7)
	resp, err := s.Query(context.Background(), Request{Graph: "g", Source: 7, AllDepths: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Depths) != len(want) {
		t.Fatalf("got %d depths, want %d", len(resp.Depths), len(want))
	}
	for v := range want {
		if resp.Depths[v] != want[v] {
			t.Fatalf("depth(%d) = %d, want %d", v, resp.Depths[v], want[v])
		}
	}
	if resp.Visited == 0 || resp.Steps == 0 {
		t.Errorf("empty summary: visited %d steps %d", resp.Visited, resp.Steps)
	}
}

// TestConcurrentDistinctSourcesMatchSerial is the concurrency
// acceptance check: parallel clients querying distinct sources all
// receive depths identical to the serial reference.
func TestConcurrentDistinctSourcesMatchSerial(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{BatchThreshold: 4})
	const clients = 32
	sources := make([]uint32, clients)
	wants := make([][]int32, clients)
	for c := range sources {
		sources[c] = uint32((c * 61) % g.NumVertices())
		wants[c] = serialDepths(t, g, sources[c])
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := s.Query(context.Background(), Request{Graph: "g", Source: sources[c], AllDepths: true})
			if err != nil {
				errs[c] = err
				return
			}
			for v := range wants[c] {
				if resp.Depths[v] != wants[c][v] {
					errs[c] = errors.New("depth mismatch")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
}

// TestBatchedSweepServesLoad holds both engine slots busy while the rest
// of 64 concurrent queries queue, so the queue runs as one multi-source
// sweep, and checks every result against the serial reference.
func TestBatchedSweepServesLoad(t *testing.T) {
	g := testGraph(t)
	gate := newRunGate(2)
	s := newGatedService(t, gate, Config{BatchThreshold: 2})
	const clients = 64
	sources := make([]uint32, clients)
	for c := range sources {
		sources[c] = uint32((c * 131) % g.NumVertices())
	}
	for c, o := range sweepBehindSlots(t, s, gate, sources) {
		if o.err != nil {
			t.Fatalf("client %d: %v", c, o.err)
		}
		if want := c >= 2; o.resp.Batched != want {
			t.Errorf("client %d: batched = %v, want %v", c, o.resp.Batched, want)
		}
		want := serialDepths(t, g, sources[c])
		for v := range want {
			if o.resp.Depths[v] != want[v] {
				t.Fatalf("client %d: depth mismatch in batched result at vertex %d", c, v)
			}
		}
	}
	if st := s.Stats(); st.Sweeps != 1 || st.BatchedQueries != clients-2 || st.EngineRuns != 2 {
		t.Fatalf("sweeps %d, batched %d, engine runs %d; want 1, %d, 2", st.Sweeps, st.BatchedQueries, st.EngineRuns, clients-2)
	}
}

// TestOverloadRejected fills the admission queue — one flight running
// (held open), one queued behind it — and checks the overflow query is
// rejected distinctly.
func TestOverloadRejected(t *testing.T) {
	gate := newRunGate(parkAll)
	s := newGatedService(t, gate, Config{
		PoolSize:   1,
		MaxQueue:   2,
		ShedTarget: time.Minute, // the queued flight stays "fresh": pure tail drop
	})
	a := asyncQuery(s, context.Background(), 0)
	gate.await(t)
	b := asyncQuery(s, context.Background(), 1)
	waitSched(t, s, sched{running: 1, pending: []uint32{1}})
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 99}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow query: err = %v, want ErrOverloaded", err)
	}
	gate.open()
	for name, ch := range map[string]<-chan outcome{"A": a, "B": b} {
		if o := mustFinish(t, name, ch); o.err != nil {
			t.Errorf("admitted query %s failed: %v", name, o.err)
		}
	}
	if st := s.Stats(); st.Rejected == 0 {
		t.Errorf("rejection not counted: %+v", st)
	}
}

func TestDeadlineExpires(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{CacheEntries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, Request{Graph: "g", Source: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The service recovers: the same source answers fine afterwards.
	resp, err := s.Query(context.Background(), Request{Graph: "g", Source: 0, Targets: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Targets[0].Depth != 0 {
		t.Fatalf("depth(source) = %d, want 0", resp.Targets[0].Depth)
	}
}

func TestDrainRejectsNewQueries(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{})
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 1}); err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitsAndCoalescing(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{})
	if _, err := s.Query(context.Background(), Request{Graph: "g", Source: 5}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(context.Background(), Request{Graph: "g", Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("second identical query not served from cache")
	}
	if st := s.Stats(); st.CacheHits == 0 {
		t.Errorf("cache hit not counted: %+v", st)
	}
}

func TestPathQuery(t *testing.T) {
	g, err := gen.Grid2D(20, 20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddGraph("grid", g); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	target := uint32(399) // opposite corner: depth 19+19
	resp, err := s.Query(context.Background(), Request{Graph: "grid", Source: 0, PathTo: &target})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PathFound == nil || !*resp.PathFound {
		t.Fatal("path not found")
	}
	if len(resp.Path) != 39 {
		t.Fatalf("path length %d, want 39 (depth 38)", len(resp.Path))
	}
	if resp.Path[0] != 0 || resp.Path[len(resp.Path)-1] != target {
		t.Fatalf("path endpoints %d..%d, want 0..%d", resp.Path[0], resp.Path[len(resp.Path)-1], target)
	}
	for i := 1; i < len(resp.Path); i++ {
		if !g.HasEdge(resp.Path[i-1], resp.Path[i]) {
			t.Fatalf("path hop (%d,%d) is not an edge", resp.Path[i-1], resp.Path[i])
		}
	}
}

func TestRequestValidation(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g, Config{})
	ctx := context.Background()
	if _, err := s.Query(ctx, Request{Graph: "nope", Source: 0}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("unknown graph: err = %v", err)
	}
	if _, err := s.Query(ctx, Request{Graph: "g", Source: 1 << 30}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad source: err = %v", err)
	}
	if _, err := s.Query(ctx, Request{Graph: "g", Source: 0, Targets: []uint32{1 << 30}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad target: err = %v", err)
	}
}

func TestEnginePool(t *testing.T) {
	g := testGraph(t)
	p := NewEnginePool(g, bfs.Default(1), 2)
	e1, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if p.Created() != 2 {
		t.Fatalf("created = %d, want 2", p.Created())
	}
	// Pool exhausted: Acquire never blocks, it says so.
	if _, err := p.Acquire(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("exhausted pool: err = %v", err)
	}
	// LIFO: the engine released last (warmest) comes back first.
	p.Release(e1)
	p.Release(e2)
	if e, _ := p.Acquire(); e != e2 {
		t.Error("pool did not hand back the most recently released engine")
	}
	if e, _ := p.Acquire(); e != e1 {
		t.Error("pool lost the engine released first")
	}
	// A discarded engine is rebuilt lazily, within the same capacity.
	p.Discard(e2)
	if p.Created() != 1 {
		t.Fatalf("created = %d after discard, want 1", p.Created())
	}
	e3, err := p.Acquire()
	if err != nil || e3 == e1 || e3 == e2 {
		t.Fatalf("acquire after discard: engine %p (e1 %p, e2 %p), err %v", e3, e1, e2, err)
	}
	if p.Created() != 2 {
		t.Fatalf("created = %d, want 2", p.Created())
	}
	p.Release(e1)
	p.Release(e3)
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	tr := func(s uint32) *Traversal { return &Traversal{Source: s} }
	c.put(1, tr(1))
	c.put(2, tr(2))
	if _, ok := c.get(1); !ok { // 1 now most recent
		t.Fatal("entry 1 missing")
	}
	c.put(3, tr(3)) // evicts 2
	if _, ok := c.get(2); ok {
		t.Error("LRU victim 2 still cached")
	}
	if _, ok := c.get(1); !ok {
		t.Error("recently used 1 evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	d := newLRUCache(-1)
	d.put(1, tr(1))
	if _, ok := d.get(1); ok {
		t.Error("disabled cache returned a hit")
	}
}
