package coord

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// newAuditCluster is a failFast test cluster with per-shard injectors
// (flat group-major index), for tests that disturb one replica only.
func newAuditCluster(t *testing.T, g *graph.Graph, groups, replicas int, injs []*faultinject.Plan) *testCluster {
	t.Helper()
	tc := newTestCluster(t, g, groups, replicas, nil, nil).failFast()
	// Rebuild the shards whose slot has an injector; the servers and URLs
	// stay, only the handler behind the proxy changes.
	for u, inj := range injs {
		if inj == nil {
			continue
		}
		s, err := NewReplicaShard(g, u/replicas, u%replicas, groups, "", inj)
		if err != nil {
			t.Fatal(err)
		}
		tc.shards[u] = s
		tc.proxies[u].inner = s.Handler()
	}
	return tc
}

// divergeSeed scans for an injection seed whose coord.diverge rolls,
// over rounds [0,maxRound) of a groups x replicas cluster, corrupt at
// least one reply before round needBy and confine every group's
// firings to a single replica. The first divergence evicts that
// replica for the epoch, so confinement guarantees the surviving
// majority stays honest — and unanimous — for every later round.
func divergeSeed(t *testing.T, groups, replicas int, prob float64, maxRound, needBy uint32) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 100000; seed++ {
		p := &faultinject.Plan{Seed: seed, Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteCoordDiverge: {FaultProb: prob},
		}}
		early := false
		ok := true
		for gid := 0; gid < groups && ok; gid++ {
			liar := -1
			for r := uint32(0); r < maxRound && ok; r++ {
				for rep := 0; rep < replicas; rep++ {
					u := gid*replicas + rep
					key := uint64(u)<<32 | uint64(r)
					if !p.Decide(faultinject.SiteCoordDiverge, key).Fault() {
						continue
					}
					if liar == -1 {
						liar = rep
					}
					if rep != liar {
						ok = false
						break
					}
					if r < needBy {
						early = true
					}
				}
			}
		}
		if ok && early {
			return seed
		}
	}
	t.Fatal("no usable divergence seed found")
	return 0
}

// TestAuditOutvotesDivergentReplica: with R=3 and injected silent
// corruption of minority replica responses, the quorum audit serves the
// honest bytes — depths stay exactly serial, every corrupted response
// is counted as a detected divergence, and the epoch never restarts
// (the corrupt replica is simply outvoted and evicted).
func TestAuditOutvotesDivergentReplica(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, levels := serialDepths(t, g, 1)
	seed := divergeSeed(t, 2, 3, 0.08, uint32(len(levels))+2, 6)
	tc := newTestCluster(t, g, 2, 3, nil, nil).failFast()
	tc.cfg.AuditReplicas = true
	tc.cfg.Injector = &faultinject.Plan{Seed: seed, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteCoordDiverge: {FaultProb: 0.08},
	}}
	c := tc.open(t)
	res, err := c.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if res.Divergences == 0 {
		t.Fatal("injected corrupt replica responses but no divergence was detected")
	}
	if res.EpochRestarts != 0 {
		t.Fatalf("minority divergence escalated to %d epoch restarts; the quorum should absorb it", res.EpochRestarts)
	}
}

// TestAuditWithoutQuorumNeverServesCorruption: with R=2 a divergence
// has no strict majority — the coordinator cannot tell which replica
// is lying, so it must refuse to serve either answer. The injection key
// is (replica, round), so every restarted epoch re-corrupts the same
// round and the run ends in a typed ErrDiverged instead of a silently
// wrong result.
func TestAuditWithoutQuorumNeverServesCorruption(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Any seed that corrupts at least one reply in the first rounds will
	// do: a 2-replica group with one corrupt member has no majority.
	seed := uint64(0)
	p := &faultinject.Plan{Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteCoordDiverge: {FaultProb: 0.25},
	}}
	for s := uint64(1); seed == 0 && s < 10000; s++ {
		p.Seed = s
		for u := 0; u < 4; u++ {
			if p.Decide(faultinject.SiteCoordDiverge, uint64(u)<<32|1).Fault() {
				seed = s
				break
			}
		}
	}
	if seed == 0 {
		t.Fatal("no usable divergence seed found")
	}
	tc := newTestCluster(t, g, 2, 2, nil, nil).failFast()
	tc.cfg.AuditReplicas = true
	tc.cfg.Injector = &faultinject.Plan{Seed: seed, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteCoordDiverge: {FaultProb: 0.25},
	}}
	c := tc.open(t)
	res, err := c.Run(context.Background(), 1)
	if err == nil {
		t.Fatalf("run served a result despite an unresolvable divergence: %+v", res)
	}
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("unresolvable divergence surfaced as %v, want ErrDiverged", err)
	}
}

// stallSeed scans for a shard.stall seed whose first few injected
// delays (sequencer keys 0..n-1) all exceed floor, so every epoch's
// first expand on the stalled shard reliably overstays the hedge.
func stallSeed(t *testing.T, n int, max time.Duration, floor time.Duration) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		p := &faultinject.Plan{Seed: seed, Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteShardStall: {DelayProb: 1, MaxDelay: max},
		}}
		ok := true
		for k := 0; k < n; k++ {
			if p.Decide(faultinject.SiteShardStall, uint64(k)).Delay < floor {
				ok = false
				break
			}
		}
		if ok {
			return seed
		}
	}
	t.Fatal("no usable stall seed found")
	return 0
}

// TestHedgeAbandonsGrayStalledReplica: one replica stalls every expand
// (alive, heartbeating, just slow — a gray failure). The hedge stops
// waiting a fixed budget after the sibling's valid response, abandons
// the straggler for the epoch, and the traversal stays exact and fast.
// Repeated queries then prove the hedged rounds leak no in-flight
// request goroutines: the cancelled stragglers' goroutines exit, so
// the count settles back between queries instead of growing.
func TestHedgeAbandonsGrayStalledReplica(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 1)
	const queries = 5
	stall := &faultinject.Plan{
		Seed: stallSeed(t, queries, 2*time.Second, 500*time.Millisecond),
		Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteShardStall: {DelayProb: 1, MaxDelay: 2 * time.Second},
		},
	}
	// Group 0, replica 1 is the gray-failed straggler.
	tc := newAuditCluster(t, g, 2, 2, []*faultinject.Plan{nil, stall, nil, nil})
	tc.cfg.HedgeAfter = 25 * time.Millisecond
	tc.cfg.AuditReplicas = true
	client := &http.Client{}
	tc.cfg.Client = client
	c := tc.open(t)

	settle := func(limit int, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > limit {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines stuck at %d, limit %d", what, runtime.NumGoroutine(), limit)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	var elapsed time.Duration
	for q := 0; q < queries; q++ {
		start := time.Now()
		res, err := c.Run(context.Background(), 1)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		elapsed = time.Since(start)
		assertExactDepths(t, res, want)
		if res.Hedges == 0 || res.HedgeWins == 0 {
			t.Fatalf("query %d: stalled replica never hedged (hedges %d, wins %d)", q, res.Hedges, res.HedgeWins)
		}
		if res.Failovers == 0 {
			t.Fatalf("query %d: hedged straggler was not abandoned for the epoch", q)
		}
		if res.EpochRestarts != 0 {
			t.Fatalf("query %d: hedge escalated to %d epoch restarts", q, res.EpochRestarts)
		}
	}
	// The stall is up to 2s per expand; a hedged traversal must not have
	// waited it out.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("hedged traversal took %v; the straggler stalled the epoch", elapsed)
	}
	// All in-flight request goroutines from the hedged rounds must drain:
	// stragglers were cancelled, and their server handlers finish their
	// injected sleeps well within the settle window.
	for _, srv := range tc.servers {
		srv.Close()
	}
	client.CloseIdleConnections()
	settle(baseline+2, "after drain")
}

// TestHedgeBudget pins the hedge budget: an explicit HedgeAfter wins, a
// negative one disables hedging, and the adaptive budget is 4× the p99
// of the window, never below hedgeFloor (a healthy replica's fsync tail)
// and never above the RPC timeout.
func TestHedgeBudget(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i, x := range v {
			d[i] = time.Duration(x) * time.Millisecond
		}
		return d
	}
	// 100 samples of 10 ms with one 100 ms outlier: p99 is the outlier.
	tail := ms(100)
	for i := 0; i < 99; i++ {
		tail = append(tail, 10*time.Millisecond)
	}
	for _, tc := range []struct {
		name       string
		after, rpc time.Duration
		lats       []time.Duration
		want       time.Duration
	}{
		{"explicit", 25 * time.Millisecond, 5 * time.Second, ms(1, 2, 3), 25 * time.Millisecond},
		{"explicit ignores window", time.Second, 5 * time.Second, nil, time.Second},
		{"disabled", -1, 5 * time.Second, ms(10), 0},
		{"no latency yet", 0, 5 * time.Second, nil, 0},
		{"fast window floors", 0, 5 * time.Second, ms(3, 5, 4), hedgeFloor},
		{"healthy fsync tail floors", 0, 5 * time.Second, ms(20, 43, 30, 25), hedgeFloor},
		{"slow window scales", 0, 5 * time.Second, ms(80, 120, 100), 480 * time.Millisecond},
		{"p99 of a full window", 0, 5 * time.Second, tail, 400 * time.Millisecond},
		{"capped by rpc timeout", 0, time.Second, ms(300, 900), time.Second},
		{"floor capped by rpc timeout", 0, 100 * time.Millisecond, ms(5), 100 * time.Millisecond},
	} {
		if got := hedgeBudget(tc.after, tc.rpc, tc.lats); got != tc.want {
			t.Errorf("%s: hedgeBudget = %v, want %v", tc.name, got, tc.want)
		}
	}
}
