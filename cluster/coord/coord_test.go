package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// testCluster runs groups x replicas in-process shard servers over g,
// each behind a restartProxy, and a coordinator Config with fast test
// timings.
type testCluster struct {
	shards  []*Shard
	servers []*httptest.Server
	proxies []*restartProxy
	cfg     Config
}

// newTestCluster builds the shards in group-major order. ckptDirs, when
// non-nil, gives each shard its round-log directory; inj is every
// shard's own injector.
func newTestCluster(t *testing.T, g *graph.Graph, groups, replicas int, ckptDirs []string, inj *faultinject.Plan) *testCluster {
	t.Helper()
	tc := &testCluster{cfg: Config{
		Replicas:          replicas,
		RPCTimeout:        5 * time.Second,
		MaxAttempts:       4,
		Backoff:           Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: 1},
		RecoveryBudget:    10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	}}
	for gid := 0; gid < groups; gid++ {
		for r := 0; r < replicas; r++ {
			dir := ""
			if ckptDirs != nil {
				dir = ckptDirs[gid*replicas+r]
			}
			s, err := NewReplicaShard(g, gid, r, groups, dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			p := &restartProxy{t: t, inner: s.Handler()}
			srv := httptest.NewServer(p)
			t.Cleanup(srv.Close)
			tc.shards = append(tc.shards, s)
			tc.proxies = append(tc.proxies, p)
			tc.servers = append(tc.servers, srv)
			tc.cfg.Shards = append(tc.cfg.Shards, srv.URL)
		}
	}
	return tc
}

func (tc *testCluster) open(t *testing.T) *Coordinator {
	t.Helper()
	c, err := Open(context.Background(), tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// faults sums the replies the proxies' plans lost and the requests they
// delivered twice.
func (tc *testCluster) faults() (lost, dups int) {
	for _, p := range tc.proxies {
		p.mu.Lock()
		lost += p.lost
		dups += p.dups
		p.mu.Unlock()
	}
	return lost, dups
}

// loseReplies gives every proxy a plan that loses each reply with
// probability prob, proxy i rolling under seed+i.
func (tc *testCluster) loseReplies(seed uint64, prob float64) *testCluster {
	for i, p := range tc.proxies {
		p.plan = &faultinject.Plan{Seed: seed + uint64(i), Rules: map[faultinject.Site]faultinject.Rule{
			siteProxyLose: {FaultProb: prob},
		}}
	}
	return tc
}

// The sites of a restartProxy's plan. Decisions are keyed by the
// proxy's expand sequence number (1, 2, ...), so a seed replays the same
// faults on the same requests whatever the goroutine schedule.
const (
	// siteProxyLose: the shard processes the round, then the reply is
	// lost (500) — the worst-timed loss. A delay rule makes the shard slow.
	siteProxyLose faultinject.Site = "proxy.lose"
	// siteProxyDup: the request is delivered twice and the second reply
	// is returned.
	siteProxyDup faultinject.Site = "proxy.dup"
)

// restartProxy wraps a shard handler and scripts its failure story:
// after killAt expand requests it "crashes" (the killing request is
// processed — its checkpoint lands — but the response is dropped),
// serves failWhileDown 500s, then either comes back as reborn (a fresh
// Shard, e.g. restored from checkpoint) or stays dead forever. A plan,
// when set, also loses, delays or duplicates expand requests, and
// onExpand loses the replies a test picks by hand.
type restartProxy struct {
	t       testing.TB
	mu      sync.Mutex
	inner   http.Handler
	plan    *faultinject.Plan
	expands int
	lost    int // replies lost by siteProxyLose
	dups    int // requests delivered twice by siteProxyDup

	killAt        int // 0 = never fail
	failWhileDown int // 500s served before rebirth; <0 = dead forever
	reborn        func() http.Handler

	// onExpand, when set, sees each expand's sequence number first, and
	// may cancel a run's context. Returning true loses that reply, as
	// siteProxyLose does, while health probes keep answering.
	onExpand func(expand int) (lose bool)

	down   bool
	failed int
}

func (p *restartProxy) script(killAt, failWhileDown int, reborn func() http.Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killAt, p.failWhileDown, p.reborn = killAt, failWhileDown, reborn
}

func (p *restartProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		p.failed++
		if p.failWhileDown >= 0 && p.failed >= p.failWhileDown {
			p.inner = p.reborn()
			p.down = false
		}
		http.Error(w, "injected: shard down", http.StatusInternalServerError)
		return
	}
	if !strings.HasSuffix(r.URL.Path, "/shard/expand") {
		p.inner.ServeHTTP(w, r)
		return
	}
	p.expands++
	key := uint64(p.expands)
	hooked := p.onExpand != nil && p.onExpand(p.expands)
	lose := p.plan.Decide(siteProxyLose, key)
	// Slept under p.mu, like the shard's own injected delay: the whole
	// shard is slow, health probes included.
	time.Sleep(lose.Delay)
	switch {
	case p.killAt > 0 && p.expands == p.killAt:
		// Process the round (the shard checkpoints it) but lose the
		// response on the wire — the worst-timed crash.
		p.inner.ServeHTTP(httptest.NewRecorder(), r)
		p.down = true
		http.Error(w, "injected: crashed before replying", http.StatusInternalServerError)
	case lose.Fault() || hooked:
		p.inner.ServeHTTP(httptest.NewRecorder(), r)
		p.lost++
		http.Error(w, "injected: reply lost", http.StatusInternalServerError)
	case p.plan.Decide(siteProxyDup, key).Fault():
		p.deliverTwice(w, r)
	default:
		p.inner.ServeHTTP(w, r)
	}
}

// deliverTwice forwards r to the shard twice and returns the second
// reply. The shard replays a duplicated round from its cache, so both
// replies must be byte-identical.
func (p *restartProxy) deliverTwice(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var replies [2]*httptest.ResponseRecorder
	for i := range replies {
		req := r.Clone(r.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		replies[i] = httptest.NewRecorder()
		p.inner.ServeHTTP(replies[i], req)
	}
	first, second := replies[0], replies[1]
	if first.Code != second.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		p.t.Errorf("duplicate delivery answered HTTP %d (%d bytes), then HTTP %d (%d bytes)",
			first.Code, first.Body.Len(), second.Code, second.Body.Len())
	}
	p.dups++
	maps.Copy(w.Header(), second.Header())
	w.WriteHeader(second.Code)
	w.Write(second.Body.Bytes())
}

// serialDepths runs the repo's serial BFS and returns the depth array
// plus the per-level size histogram.
func serialDepths(t *testing.T, g *graph.Graph, source uint32) ([]int32, []int64) {
	t.Helper()
	r, err := bfs.RunSerial(g, source)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	depth := make([]int32, n)
	var levels []int64
	for v := 0; v < n; v++ {
		d := r.Depth(uint32(v))
		depth[v] = d
		if d >= 0 {
			for int(d) >= len(levels) {
				levels = append(levels, 0)
			}
			levels[d]++
		}
	}
	return depth, levels
}

func assertExactDepths(t *testing.T, res *Result, want []int32) {
	t.Helper()
	if res.Incomplete {
		t.Fatalf("result marked incomplete (dead shards %v) on a healthy cluster", res.DeadShards)
	}
	if len(res.Depth) != len(want) {
		t.Fatalf("depth array covers %d vertices, want %d", len(res.Depth), len(want))
	}
	var visited int64
	for v := range want {
		if res.Depth[v] != want[v] {
			t.Fatalf("vertex %d: distributed depth %d, serial %d", v, res.Depth[v], want[v])
		}
		if want[v] >= 0 {
			visited++
		}
	}
	if res.Visited != visited {
		t.Fatalf("visited %d vertices, serial BFS reaches %d", res.Visited, visited)
	}
}

// TestDistributedExactDepths: clusters of 1 to 8 shards reproduce
// serial BFS depths byte-for-byte on RMAT, grid, uniform-random and
// stress-bipartite graphs, including the round-for-round level sizes.
func TestDistributedExactDepths(t *testing.T) {
	for _, tg := range []struct {
		name   string
		build  func() (*graph.Graph, error)
		source uint32
	}{
		{"rmat", func() (*graph.Graph, error) { return gen.RMAT(gen.Graph500Params(10, 8), 42) }, 1},
		{"grid", func() (*graph.Graph, error) { return gen.Grid2D(40, 25, 0, 7) }, 0},
		{"ur", func() (*graph.Graph, error) { return gen.UniformRandom(4000, 8, 1) }, 0},
		{"stress", func() (*graph.Graph, error) { return gen.StressBipartite(2048, 6, 4) }, 0},
	} {
		t.Run(tg.name, func(t *testing.T) {
			g, err := tg.build()
			if err != nil {
				t.Fatal(err)
			}
			want, levels := serialDepths(t, g, tg.source)
			for _, shards := range []int{1, 2, 3, 4, 8} {
				t.Run(strconv.Itoa(shards), func(t *testing.T) {
					c := newTestCluster(t, g, shards, 1, nil, nil).open(t)
					if c.NumVertices() != g.NumVertices() {
						t.Fatalf("coordinator discovered %d vertices, graph has %d", c.NumVertices(), g.NumVertices())
					}
					res, err := c.Run(context.Background(), tg.source)
					if err != nil {
						t.Fatal(err)
					}
					assertExactDepths(t, res, want)
					if !slices.Equal(res.ClaimedPerRound, levels) {
						t.Fatalf("rounds claimed %v vertices, serial level sizes are %v", res.ClaimedPerRound, levels)
					}
					if res.Rounds != len(levels) {
						t.Fatalf("cluster ran %d claiming rounds, serial BFS has %d levels", res.Rounds, len(levels))
					}
					if res.Retries != 0 || res.EpochRestarts != 0 {
						t.Fatalf("healthy cluster reported %d retries, %d epoch restarts", res.Retries, res.EpochRestarts)
					}
				})
			}
		})
	}
}

// TestDistributedMatchesSim: the HTTP cluster and an in-process
// simulation of the round protocol — the reference shards driven round by
// round, with no coordinator and no network — agree depth for depth and
// level for level. The process boundary must not change the algorithm.
func TestDistributedMatchesSim(t *testing.T) {
	g, err := gen.Kronecker(10, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	const source, shards = 3, 4
	refs := make([]*refShard, shards)
	for i := range refs {
		refs[i] = newRefShard(g, i, shards)
	}
	var levels []int64
	driveEpoch(t, g.NumVertices(), shards, 1, source, func(i int, cand *Frontier) []byte {
		reply := refs[i].expand(cand)
		resp, err := DecodeExpandResponse(reply)
		if err != nil {
			t.Fatal(err)
		}
		if int(cand.Round) == len(levels) {
			levels = append(levels, 0)
		}
		levels[cand.Round] += int64(resp.Claimed)
		return reply
	})
	// The simulation ends on a round that claims nothing; the cluster
	// does not count it.
	levels = levels[:len(levels)-1]
	if len(levels) < 3 {
		t.Fatalf("source %d reaches only %d levels; the test is vacuous", source, len(levels))
	}

	res, err := newTestCluster(t, g, shards, 1, nil, nil).open(t).Run(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		for off, d := range r.depth {
			if v := r.lo + uint32(off); res.Depth[v] != d {
				t.Fatalf("vertex %d: HTTP cluster depth %d, simulated depth %d", v, res.Depth[v], d)
			}
		}
	}
	if !slices.Equal(res.ClaimedPerRound, levels) || res.Rounds != len(levels) {
		t.Fatalf("cluster ran %d rounds claiming %v, simulation claimed %v", res.Rounds, res.ClaimedPerRound, levels)
	}
}

// TestCrashAndReplyLossExact: one shard crashes at the worst moment and
// restarts from its round log, while every shard loses 5% of its
// replies after processing the round. The idempotent round protocol
// absorbs both: depths stay exact and the epoch never restarts.
func TestCrashAndReplyLossExact(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(11, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()}
	tc := newTestCluster(t, g, 4, 1, dirs, nil).loseReplies(9, 0.05)
	tc.proxies[1].script(2, 2, func() http.Handler {
		s, err := NewShard(g, 1, 4, dirs[1], nil)
		if err != nil {
			t.Errorf("restart: %v", err)
			return http.NotFoundHandler()
		}
		return s.Handler()
	})
	res, err := tc.open(t).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if lost, _ := tc.faults(); lost == 0 {
		t.Fatal("the loss plan fired on no reply; the test is vacuous")
	}
	if res.Retries == 0 {
		t.Fatal("crash and reply loss produced no retries")
	}
	if res.EpochRestarts != 0 {
		t.Fatalf("crash and reply loss forced %d epoch restarts; replay should have sufficed", res.EpochRestarts)
	}
}

// TestDuplicateDeliveryExact: every shard receives about a third of its
// round messages twice. A duplicate replays the cached reply byte for
// byte, so the run claims what a fault-free one does, round for round,
// and retries nothing.
func TestDuplicateDeliveryExact(t *testing.T) {
	g, err := gen.UniformRandom(4000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, levels := serialDepths(t, g, 0)
	tc := newTestCluster(t, g, 4, 1, nil, nil)
	for i, p := range tc.proxies {
		p.plan = &faultinject.Plan{Seed: 7 + uint64(i), Rules: map[faultinject.Site]faultinject.Rule{
			siteProxyDup: {FaultProb: 0.3},
		}}
	}
	res, err := tc.open(t).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if _, dups := tc.faults(); dups == 0 {
		t.Fatal("the duplication plan fired on no request; the test is vacuous")
	}
	// A fault-free run claims exactly the serial level sizes
	// (TestDistributedExactDepths).
	if !slices.Equal(res.ClaimedPerRound, levels) {
		t.Fatalf("rounds claimed %v with duplicates, serial level sizes are %v", res.ClaimedPerRound, levels)
	}
	if res.Retries != 0 {
		t.Fatalf("duplicate delivery caused %d retries", res.Retries)
	}
}

// TestSlowShardExact: one shard takes up to four heartbeat intervals
// over each round, well inside the RPC timeout. A slow shard is not a
// failed one: depths stay exact, with no retry and no dead shard.
func TestSlowShardExact(t *testing.T) {
	g, err := gen.UniformRandom(1000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	tc := newTestCluster(t, g, 2, 1, nil, nil)
	hb := tc.cfg.HeartbeatInterval
	slow := &faultinject.Plan{Seed: 9, Rules: map[faultinject.Site]faultinject.Rule{
		siteProxyLose: {DelayProb: 1, MaxDelay: 4 * hb},
	}}
	if d := slow.Decide(siteProxyLose, 1).Delay; d <= hb {
		t.Fatalf("round 0 is delayed %v, no longer than a heartbeat interval; pick another seed", d)
	}
	tc.proxies[0].plan = slow
	res, err := tc.open(t).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if res.Retries != 0 || len(res.DeadShards) != 0 {
		t.Fatalf("slow shard caused %d retries, dead shards %v", res.Retries, res.DeadShards)
	}
}

// TestRunCanceledOrOutOfRange: a run under an already-cancelled context
// returns the cancellation, a source outside the graph is refused, and
// the coordinator still answers exactly afterwards.
func TestRunCanceledOrOutOfRange(t *testing.T) {
	g, err := gen.UniformRandom(2000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	c := newTestCluster(t, g, 2, 1, nil, nil).open(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("run under a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := c.Run(context.Background(), uint32(g.NumVertices())); err == nil {
		t.Fatal("source |V| accepted")
	}
	res, err := c.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
}

// TestChaoticWireStillExact: deterministic injected send failures and
// shard-side expand faults force retries, yet the committed depths stay
// byte-exact — the idempotent round protocol absorbs every replay.
func TestChaoticWireStillExact(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 11)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 2)

	// Shard-side faults ride the shards' own injector.
	shardPlan := &faultinject.Plan{Seed: 33, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteShardExpand: {FaultProb: 0.2},
	}}
	tc := newTestCluster(t, g, 3, 1, nil, shardPlan)
	tc.cfg.MaxAttempts = 6
	tc.cfg.Backoff = Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Jitter: 0.5, Seed: 2}
	tc.cfg.Injector = &faultinject.Plan{Seed: 44, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteCoordSend: {FaultProb: 0.25},
	}}
	res, err := tc.open(t).Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if res.Retries == 0 {
		t.Fatal("fault plan produced no retries; chaos test is vacuous")
	}
}

// TestShardRestartFromCheckpoint: a shard crashes at the worst moment —
// after processing and checkpointing a round but before its response
// escapes — and a replacement process restored from the checkpoint
// replays the identical response. Depths stay exact, no epoch restart.
// The crash may also tear the round's log record at any byte: the
// replacement then resumes at that round, and the coordinator's retry
// reprocesses it, again without an epoch restart.
func TestShardRestartFromCheckpoint(t *testing.T) {
	g, err := gen.Grid2D(30, 30, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	// run kills shard 1 on its killAt-th round, serves 2 errors, then
	// "restarts" it from its checkpoint directory after keeping only cut
	// bytes of the killed round's record (cut < 0 keeps it whole). It
	// returns the length of that record.
	run := func(t *testing.T, killAt, cut int) (recLen int) {
		dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
		tc := newTestCluster(t, g, 3, 1, dirs, nil)
		tc.proxies[1].script(killAt, 2, func() http.Handler {
			resume := uint32(killAt)
			if cut >= 0 {
				path := checkpointPath(dirs[1])
				b, err := os.ReadFile(path)
				if err != nil {
					t.Errorf("reading the round log: %v", err)
					return http.NotFoundHandler()
				}
				lo, hi := tc.shards[1].Range()
				rl, err := loadRoundLog(b, lo, hi)
				if err != nil {
					t.Errorf("round log before the tear: %v", err)
					return http.NotFoundHandler()
				}
				recLen = logRecordFixed + 4*len(rl.last)
				if err := os.Truncate(path, int64(rl.size-recLen+cut)); err != nil {
					t.Errorf("tearing the round log: %v", err)
				}
				resume--
			}
			s, err := NewShard(g, 1, 3, dirs[1], nil)
			if err != nil {
				t.Errorf("restart: %v", err)
				return http.NotFoundHandler()
			}
			if st := s.Status(); st.Round != resume {
				t.Errorf("restarted shard expects round %d, want %d", st.Round, resume)
			}
			return s.Handler()
		})
		res, err := tc.open(t).Run(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		assertExactDepths(t, res, want)
		if res.Retries == 0 {
			t.Fatal("crash produced no retries; the kill never happened")
		}
		if res.EpochRestarts != 0 {
			t.Fatalf("checkpointed restart forced %d epoch restarts; replay should have sufficed", res.EpochRestarts)
		}
		return recLen
	}
	run(t, 5, -1)
	// Shard 1 owns rows 10-19; round 14 claims five of its vertices.
	for cut, recLen := 0, 1; cut < recLen; cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) { recLen = run(t, 15, cut) })
	}
}

// TestShardRestartWithoutCheckpoint: the replacement shard comes back
// empty-handed (checkpoint lost with the machine). Its sequencing
// refusal forces a bounded epoch restart, after which depths are again
// exact.
func TestShardRestartWithoutCheckpoint(t *testing.T) {
	g, err := gen.Grid2D(25, 25, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	tc := newTestCluster(t, g, 3, 1, nil, nil)
	tc.proxies[2].script(4, 2, func() http.Handler {
		s, err := NewShard(g, 2, 3, "", nil) // fresh state, no checkpoint
		if err != nil {
			t.Errorf("restart: %v", err)
			return http.NotFoundHandler()
		}
		return s.Handler()
	})
	res, err := tc.open(t).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if res.EpochRestarts == 0 {
		t.Fatal("stateless restart did not force an epoch restart; sequencing check is not working")
	}
}

// TestPermanentShardDeath: a shard that never comes back must not hang
// the run — past the recovery budget the coordinator degrades to a
// typed partial result over the surviving shards.
func TestPermanentShardDeath(t *testing.T) {
	g, err := gen.Grid2D(20, 20, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := serialDepths(t, g, 0)
	tc := newTestCluster(t, g, 3, 1, nil, nil)
	tc.cfg.RecoveryBudget = 300 * time.Millisecond
	tc.cfg.MaxAttempts = 2
	tc.proxies[1].script(3, -1, nil) // dies on round 3, dead forever
	c := tc.open(t)
	start := time.Now()
	res, err := c.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatal("run with a permanently dead shard not marked Incomplete")
	}
	if len(res.DeadShards) != 1 || res.DeadShards[0] != 1 {
		t.Fatalf("DeadShards = %v, want [1]", res.DeadShards)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("degraded run took %v; recovery budget is not bounding detection", elapsed)
	}
	// The partial result is sound: the dead shard's range reads -1, the
	// source is still depth 0, and no surviving vertex claims a depth
	// better than the true shortest path.
	lo, hi := tc.shards[1].Range()
	for v := lo; v < hi; v++ {
		if res.Depth[v] != -1 {
			t.Fatalf("vertex %d in dead shard's range has depth %d, want -1", v, res.Depth[v])
		}
	}
	if res.Depth[0] != 0 {
		t.Fatalf("source depth %d after degradation", res.Depth[0])
	}
	for v, d := range res.Depth {
		if d < 0 {
			continue
		}
		if serial[v] < 0 || d < serial[v] {
			t.Fatalf("vertex %d: degraded depth %d beats serial %d — impossible path invented", v, d, serial[v])
		}
	}
	if res.Visited == 0 || res.Visited >= int64(g.NumVertices()) {
		t.Fatalf("degraded run visited %d of %d vertices; expected a proper subset", res.Visited, g.NumVertices())
	}
}

// TestOpenValidation: misconfigured clusters are refused at Open — a
// shard reporting the wrong id, and an unreachable shard after the
// budget.
func TestOpenValidation(t *testing.T) {
	g, err := gen.UniformRandom(500, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shard launched as id 1 but configured first.
	s1, err := NewShard(g, 1, 2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := NewShard(g, 0, 2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(s1.Handler())
	defer srv1.Close()
	srv0 := httptest.NewServer(s0.Handler())
	defer srv0.Close()
	cfg := Config{
		Shards:         []string{srv1.URL, srv0.URL},
		RecoveryBudget: 500 * time.Millisecond,
		Backoff:        Backoff{Base: 10 * time.Millisecond},
	}
	if _, err := Open(context.Background(), cfg); err == nil {
		t.Fatal("Open accepted shards configured out of id order")
	}
	// Unreachable shard: Open must fail within the budget, not hang.
	cfg.Shards = []string{srv0.URL, "http://127.0.0.1:1"}
	start := time.Now()
	if _, err := Open(context.Background(), cfg); err == nil {
		t.Fatal("Open accepted an unreachable shard")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("Open did not respect the recovery budget for unreachable shards")
	}
}
