package cluster_test

// The projection in this package assumes a 1-D partitioned,
// level-synchronous traversal that does the serial traversal's work at
// any node count (Workload.Depth levels) and fails loudly rather than
// silently. These tests hold the repo's real one, fastbfs/cluster/coord,
// to that. Each simulates a cluster in one process: every shard is served
// over loopback HTTP.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/cluster/coord"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// siteLose is the loss site of lossPlans: the shard processes the round,
// then its reply is lost.
const siteLose faultinject.Site = "sim.lose"

// hookedShard serves a shard and calls before ahead of each expand
// request with the shard's expand count (1, 2, ...). When before returns
// true, the round is processed and the reply lost (500).
type hookedShard struct {
	inner  http.Handler
	before func(expand int) (lose bool)
	mu     sync.Mutex
	n      int
}

func (h *hookedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/shard/expand") {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.mu.Lock()
	h.n++
	lose := h.before(h.n)
	h.mu.Unlock()
	if lose {
		h.inner.ServeHTTP(httptest.NewRecorder(), r)
		http.Error(w, "injected: reply lost", http.StatusInternalServerError)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// testConfig is a coordinator configuration with fast test timings.
func testConfig() coord.Config {
	return coord.Config{
		RPCTimeout:        5 * time.Second,
		MaxAttempts:       4,
		Backoff:           coord.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: 1},
		RecoveryBudget:    10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	}
}

// startCluster serves g over n shards and opens a coordinator on them
// with cfg. hook, when non-nil, is shard i's expand hook (see
// hookedShard).
func startCluster(t *testing.T, g *graph.Graph, n int, cfg coord.Config, hook func(i, expand int) bool) *coord.Coordinator {
	t.Helper()
	for i := 0; i < n; i++ {
		s, err := coord.NewShard(g, i, n, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = s.Handler()
		if hook != nil {
			h = &hookedShard{inner: h, before: func(expand int) bool { return hook(i, expand) }}
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		cfg.Shards = append(cfg.Shards, srv.URL)
	}
	c, err := coord.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lossPlans loses each shard's replies with probability prob, shard i
// rolling under seed+i. Decisions are keyed by the shard's own expand
// count, so a seed replays the same losses whatever the goroutine
// schedule.
func lossPlans(seed uint64, prob float64) func(i, expand int) bool {
	return func(i, expand int) bool {
		p := faultinject.Plan{Seed: seed + uint64(i), Rules: map[faultinject.Site]faultinject.Rule{
			siteLose: {FaultProb: prob},
		}}
		return p.Decide(siteLose, uint64(expand)).Fault()
	}
}

func serial(t *testing.T, g *graph.Graph, source uint32) *bfs.Result {
	t.Helper()
	ref, err := bfs.RunSerial(g, source)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func assertSerialDepths(t *testing.T, res *coord.Result, ref *bfs.Result) {
	t.Helper()
	if res.Incomplete {
		t.Fatalf("result marked incomplete (dead shards %v)", res.DeadShards)
	}
	for v := range res.Depth {
		if want := ref.Depth(uint32(v)); res.Depth[v] != want {
			t.Fatalf("vertex %d depth %d, want %d", v, res.Depth[v], want)
		}
	}
	if res.Visited != ref.Visited {
		t.Fatalf("visited %d, want %d", res.Visited, ref.Visited)
	}
}

// TestSimMatchesSerial: the distributed traversal must produce exactly
// the single-node depths on every graph family, at every node count, in
// as many level-synchronous rounds as the serial traversal has levels.
func TestSimMatchesSerial(t *testing.T) {
	for name, build := range map[string]func() (*graph.Graph, error){
		"ur":     func() (*graph.Graph, error) { return gen.UniformRandom(4000, 8, 1) },
		"rmat":   func() (*graph.Graph, error) { return gen.RMAT(gen.Graph500Params(11, 8), 2) },
		"grid":   func() (*graph.Graph, error) { return gen.Grid2D(50, 50, 0, 3) },
		"stress": func() (*graph.Graph, error) { return gen.StressBipartite(2048, 6, 4) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ref := serial(t, g, 0)
		var levels int32
		for v := 0; v < g.NumVertices(); v++ {
			levels = max(levels, ref.Depth(uint32(v))+1)
		}
		for _, nodes := range []int{1, 2, 4, 8} {
			res, err := startCluster(t, g, nodes, testConfig(), nil).Run(context.Background(), 0)
			if err != nil {
				t.Fatalf("%s nodes=%d: %v", name, nodes, err)
			}
			assertSerialDepths(t, res, ref)
			if res.Rounds != int(levels) {
				t.Fatalf("%s nodes=%d: %d rounds, serial BFS has %d levels", name, nodes, res.Rounds, levels)
			}
		}
	}
}

// TestSimValidation rejects bad inputs: a shard id outside its cluster,
// a cluster of no shards, and a source outside the graph.
func TestSimValidation(t *testing.T) {
	g, err := gen.UniformRandom(100, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ id, shards int }{{2, 2}, {-1, 2}, {0, 0}} {
		if _, err := coord.NewShard(g, bad.id, bad.shards, "", nil); err == nil {
			t.Errorf("shard %d of %d accepted", bad.id, bad.shards)
		}
	}
	c := startCluster(t, g, 2, testConfig(), nil)
	for _, src := range []uint32{100, 1000} {
		if _, err := c.Run(context.Background(), src); err == nil {
			t.Errorf("out-of-range source %d accepted", src)
		}
	}
}

// TestSimRunHonorsContext: an already-cancelled context never starts a
// traversal, and a live deadline lets one complete.
func TestSimRunHonorsContext(t *testing.T) {
	g, err := gen.UniformRandom(2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, g, 2, testConfig(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: got %v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	res, err := c.Run(ctx2, 0)
	if err != nil {
		t.Fatalf("Run under live deadline: %v", err)
	}
	assertSerialDepths(t, res, serial(t, g, 0))
}

// TestFaultyCanceledContext: cancellation in the middle of a traversal
// aborts it with ctx.Err(), and the abandoned epoch leaves nothing behind
// that stops the next run from completing exactly.
func TestFaultyCanceledContext(t *testing.T) {
	g, err := gen.UniformRandom(2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceled bool
	c := startCluster(t, g, 2, testConfig(), func(i, expand int) bool {
		if i == 0 && expand == 2 {
			canceled = true
			cancel() // in round 1 of the first run
		}
		return false
	})
	if _, err := c.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("run canceled mid-traversal: got %v, want context.Canceled", err)
	}
	if !canceled {
		t.Fatal("the traversal ended before round 1; the test is vacuous")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	res, err := c.Run(ctx2, 0)
	if err != nil {
		t.Fatalf("run after a canceled one: %v", err)
	}
	assertSerialDepths(t, res, serial(t, g, 0))
}

// TestFaultyDeliveryExhaustion: when every delivery to a shard fails
// while its health endpoint keeps answering, the coordinator must stop
// after its hard attempt cap and flag the result as incomplete — never
// hang, and never present a partial traversal as a whole one.
func TestFaultyDeliveryExhaustion(t *testing.T) {
	g, err := gen.UniformRandom(2000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxAttempts = 2
	cfg.RecoveryBudget = 300 * time.Millisecond
	c := startCluster(t, g, 4, cfg, func(i, expand int) bool {
		return i == 1 && expand >= 2 // shard 1 answers round 0 only
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Run(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete || !slices.Equal(res.DeadShards, []int{1}) {
		t.Fatalf("incomplete %v, dead shards %v; want shard 1 declared dead", res.Incomplete, res.DeadShards)
	}
	if res.Visited >= int64(g.NumVertices()) {
		t.Fatalf("degraded run visited all %d vertices", res.Visited)
	}
}

// TestFaultDeterminism: the same loss seed yields the same result —
// depths, rounds, level sizes and retry count — across repeated runs on
// fresh clusters, despite the concurrent shard requests.
func TestFaultDeterminism(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(10, 8), 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := serial(t, g, 0)
	retried := false
	for _, seed := range []uint64{1, 99, 31337} {
		var first *coord.Result
		for run := 0; run < 3; run++ {
			res, err := startCluster(t, g, 4, testConfig(), lossPlans(seed, 0.1)).Run(context.Background(), 0)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			assertSerialDepths(t, res, ref)
			if first == nil {
				first = res
				retried = retried || res.Retries > 0
				continue
			}
			if res.Rounds != first.Rounds || !slices.Equal(res.ClaimedPerRound, first.ClaimedPerRound) ||
				res.Retries != first.Retries || res.EpochRestarts != first.EpochRestarts {
				t.Fatalf("seed %d run %d: rounds %d levels %v retries %d restarts %d; first run %d %v %d %d",
					seed, run, res.Rounds, res.ClaimedPerRound, res.Retries, res.EpochRestarts,
					first.Rounds, first.ClaimedPerRound, first.Retries, first.EpochRestarts)
			}
		}
	}
	if !retried {
		t.Fatal("no seed lost a reply; the test is vacuous")
	}
}

// TestFaultyBackoffJittered: jitter changes only when a retry is sent,
// never whether: the same losses cost the same retries, and give the same
// depths, with and without jitter.
func TestFaultyBackoffJittered(t *testing.T) {
	g, err := gen.UniformRandom(4000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := serial(t, g, 0)
	jittered := testConfig()
	fixed := testConfig()
	fixed.Backoff.Jitter = 0
	rj, err := startCluster(t, g, 8, jittered, lossPlans(7, 0.15)).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := startCluster(t, g, 8, fixed, lossPlans(7, 0.15)).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSerialDepths(t, rj, ref)
	assertSerialDepths(t, rf, ref)
	if rj.Retries == 0 {
		t.Fatal("plan produced no retries; test is vacuous")
	}
	if rj.Retries != rf.Retries {
		t.Fatalf("jitter changed the retry count: %d vs %d (it must only change delays)", rj.Retries, rf.Retries)
	}
}

// TestBackoffSchedule: the coordinator spaces a shard's retries by its
// Backoff schedule. Three lost replies in round 0 cost three retries and
// at least the three shortest delays the jitter window allows.
func TestBackoffSchedule(t *testing.T) {
	g, err := gen.UniformRandom(1000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Backoff = coord.Backoff{Base: 20 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 3}
	var floor time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		floor += time.Duration(float64(cfg.Backoff.Base<<(attempt-1)) * (1 - cfg.Backoff.Jitter))
	}
	c := startCluster(t, g, 2, cfg, func(i, expand int) bool {
		return i == 0 && expand <= 3
	})
	start := time.Now()
	res, err := c.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("three retries took %v, under the schedule's floor %v", elapsed, floor)
	}
	if res.Retries != 3 {
		t.Fatalf("%d retries, want 3", res.Retries)
	}
	assertSerialDepths(t, res, serial(t, g, 0))
}
