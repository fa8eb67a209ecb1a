package coord

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/cluster"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// testCluster spins up nshards in-process shard servers over g and a
// coordinator configured with fast test timings.
type testCluster struct {
	shards  []*Shard
	servers []*httptest.Server
	proxies []*restartProxy
	cfg     Config
}

func newTestCluster(t *testing.T, g *graph.Graph, nshards int, ckptDirs []string) *testCluster {
	t.Helper()
	tc := &testCluster{cfg: Config{
		RPCTimeout:        5 * time.Second,
		MaxAttempts:       4,
		Backoff:           cluster.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: 1},
		RecoveryBudget:    10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	}}
	for i := 0; i < nshards; i++ {
		dir := ""
		if ckptDirs != nil {
			dir = ckptDirs[i]
		}
		s, err := NewShard(g, i, nshards, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := &restartProxy{inner: s.Handler()}
		srv := httptest.NewServer(p)
		t.Cleanup(srv.Close)
		tc.shards = append(tc.shards, s)
		tc.proxies = append(tc.proxies, p)
		tc.servers = append(tc.servers, srv)
		tc.cfg.Shards = append(tc.cfg.Shards, srv.URL)
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

// restartProxy wraps a shard handler and scripts its failure story:
// after killAt expand requests it "crashes" (the killing request is
// processed — its checkpoint lands — but the response is dropped),
// serves failWhileDown 500s, then either comes back as reborn (a fresh
// Shard, e.g. restored from checkpoint) or stays dead forever.
type restartProxy struct {
	mu      sync.Mutex
	inner   http.Handler
	expands int

	killAt        int // 0 = never fail
	failWhileDown int // 500s served before rebirth; <0 = dead forever
	reborn        func() http.Handler

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
	isExpand := strings.HasSuffix(r.URL.Path, "/shard/expand")
	if isExpand {
		p.expands++
		if p.killAt > 0 && p.expands == p.killAt {
			// Process the round (the shard checkpoints it) but lose the
			// response on the wire — the worst-timed crash.
			p.inner.ServeHTTP(httptest.NewRecorder(), r)
			p.down = true
			http.Error(w, "injected: crashed before replying", http.StatusInternalServerError)
			return
		}
	}
	p.inner.ServeHTTP(w, r)
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
	for v := range want {
		if res.Depth[v] != want[v] {
			t.Fatalf("vertex %d: distributed depth %d, serial %d", v, res.Depth[v], want[v])
		}
	}
}

// TestDistributedExactDepths: a 3-shard cluster reproduces serial BFS
// depths byte-for-byte on an RMAT graph and a grid, including the
// round-for-round level sizes.
func TestDistributedExactDepths(t *testing.T) {
	rmat, err := gen.RMAT(gen.Graph500Params(10, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(40, 25, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range []struct {
		name   string
		g      *graph.Graph
		source uint32
	}{{"rmat", rmat, 1}, {"grid", grid, 0}} {
		t.Run(tg.name, func(t *testing.T) {
			want, levels := serialDepths(t, tg.g, tg.source)
			tc := newTestCluster(t, tg.g, 3, nil)
			c := tc.open(t)
			if c.NumVertices() != tg.g.NumVertices() {
				t.Fatalf("coordinator discovered %d vertices, graph has %d", c.NumVertices(), tg.g.NumVertices())
			}
			res, err := c.Run(context.Background(), tg.source)
			if err != nil {
				t.Fatal(err)
			}
			assertExactDepths(t, res, want)
			if len(res.ClaimedPerRound) != len(levels) {
				t.Fatalf("%d rounds claimed vertices, serial BFS has %d levels", len(res.ClaimedPerRound), len(levels))
			}
			for r, n := range levels {
				if res.ClaimedPerRound[r] != n {
					t.Fatalf("round %d claimed %d vertices, serial level size is %d", r, res.ClaimedPerRound[r], n)
				}
			}
			if res.Retries != 0 || res.EpochRestarts != 0 {
				t.Fatalf("healthy cluster reported %d retries, %d epoch restarts", res.Retries, res.EpochRestarts)
			}
		})
	}
}

// TestDistributedMatchesSim: the real HTTP cluster and the in-process
// cluster.Sim agree depth-for-depth and level-for-level — the process
// boundary must not change the algorithm.
func TestDistributedMatchesSim(t *testing.T) {
	g, err := gen.Kronecker(10, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	const source = 3
	sim, err := cluster.NewSim(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, g, 4, nil)
	res, err := tc.open(t).Run(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	for v := range simRes.Depth {
		if res.Depth[v] != simRes.Depth[v] {
			t.Fatalf("vertex %d: HTTP cluster depth %d, Sim depth %d", v, res.Depth[v], simRes.Depth[v])
		}
	}
	// Sim counts expansion steps; the last one discovers nothing new, so
	// levels = Steps when the deepest level has no out-frontier... compare
	// via depths instead: deepest level index must equal Rounds-1.
	var maxd int32 = -1
	for _, d := range simRes.Depth {
		if d > maxd {
			maxd = d
		}
	}
	if int(maxd)+1 != res.Rounds {
		t.Fatalf("cluster ran %d claiming rounds, depth histogram has %d levels", res.Rounds, maxd+1)
	}
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
	tc := &testCluster{cfg: Config{
		RPCTimeout:        5 * time.Second,
		MaxAttempts:       6,
		Backoff:           cluster.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Jitter: 0.5, Seed: 2},
		RecoveryBudget:    10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		Injector: &faultinject.Plan{Seed: 44, Rules: map[faultinject.Site]faultinject.Rule{
			faultinject.SiteCoordSend: {FaultProb: 0.25},
		}},
	}}
	for i := 0; i < 3; i++ {
		s, err := NewShard(g, i, 3, "", shardPlan)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		tc.cfg.Shards = append(tc.cfg.Shards, srv.URL)
	}
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
		tc := newTestCluster(t, g, 3, dirs)
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
	tc := newTestCluster(t, g, 3, nil)
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
	tc := newTestCluster(t, g, 3, nil)
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
		Backoff:        cluster.Backoff{Base: 10 * time.Millisecond},
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
