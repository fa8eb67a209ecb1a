package coord

// Scenarios that once exercised the deleted cluster.Sim, kept under
// their old names and run on the real coordinator over newTestCluster:
// exact depths at every shard count, input validation, cancellation,
// the hard attempt cap, and fault determinism under reply loss.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"fastbfs/graph"
	"fastbfs/graph/gen"
)

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
		want, levels := serialDepths(t, g, 0)
		for _, nodes := range []int{1, 2, 4, 8} {
			res, err := newTestCluster(t, g, nodes, 1, nil, nil).open(t).Run(context.Background(), 0)
			if err != nil {
				t.Fatalf("%s nodes=%d: %v", name, nodes, err)
			}
			assertExactDepths(t, res, want)
			if res.Rounds != len(levels) {
				t.Fatalf("%s nodes=%d: %d rounds, serial BFS has %d levels", name, nodes, res.Rounds, len(levels))
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
		if _, err := NewShard(g, bad.id, bad.shards, "", nil); err == nil {
			t.Errorf("shard %d of %d accepted", bad.id, bad.shards)
		}
	}
	c := newTestCluster(t, g, 2, 1, nil, nil).open(t)
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
	want, _ := serialDepths(t, g, 0)
	c := newTestCluster(t, g, 2, 1, nil, nil).open(t)
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
	assertExactDepths(t, res, want)
}

// TestFaultyCanceledContext: cancellation in the middle of a traversal
// aborts it with ctx.Err(), and the abandoned epoch leaves nothing behind
// that stops the next run from completing exactly.
func TestFaultyCanceledContext(t *testing.T) {
	g, err := gen.UniformRandom(2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceled bool
	tc := newTestCluster(t, g, 2, 1, nil, nil)
	tc.proxies[0].onExpand = func(expand int) bool {
		if expand == 2 {
			canceled = true
			cancel() // in round 1 of the first run
		}
		return false
	}
	c := tc.open(t)
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
	assertExactDepths(t, res, want)
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
	tc := newTestCluster(t, g, 4, 1, nil, nil)
	tc.cfg.MaxAttempts = 2
	tc.cfg.RecoveryBudget = 300 * time.Millisecond
	tc.proxies[1].onExpand = func(expand int) bool { return expand >= 2 } // answers round 0 only
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := tc.open(t).Run(ctx, 0)
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
	want, _ := serialDepths(t, g, 0)
	retried := false
	for _, seed := range []uint64{1, 99, 31337} {
		var first *Result
		for run := 0; run < 3; run++ {
			res, err := newTestCluster(t, g, 4, 1, nil, nil).loseReplies(seed, 0.1).open(t).Run(context.Background(), 0)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			assertExactDepths(t, res, want)
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
	want, _ := serialDepths(t, g, 0)
	jittered := newTestCluster(t, g, 8, 1, nil, nil).loseReplies(7, 0.15)
	fixed := newTestCluster(t, g, 8, 1, nil, nil).loseReplies(7, 0.15)
	fixed.cfg.Backoff.Jitter = 0
	rj, err := jittered.open(t).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fixed.open(t).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, rj, want)
	assertExactDepths(t, rf, want)
	if rj.Retries == 0 {
		t.Fatal("plan produced no retries; test is vacuous")
	}
	if rj.Retries != rf.Retries {
		t.Fatalf("jitter changed the retry count: %d vs %d (it must only change delays)", rj.Retries, rf.Retries)
	}
}
