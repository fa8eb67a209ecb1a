//go:build unix

package main

// Process-level cluster harness: these tests build the real bfsd
// binary, launch a coordinator plus three shard processes, and drive
// distributed BFS queries against serially computed ground truth —
// including SIGKILLing a shard mid-query-stream and asserting the
// checkpointed restart converges back to exact depths, and a
// permanently dead shard degrading to a typed partial result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/cluster/coord"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// clusterScale is the RMAT scale the cluster tests run at; the CI
// cluster-smoke job raises it to 14 via BFSD_CLUSTER_SCALE.
func clusterScale(t *testing.T) int {
	if s := os.Getenv("BFSD_CLUSTER_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("BFSD_CLUSTER_SCALE=%q: %v", s, err)
		}
		return v
	}
	return 10
}

const clusterSeed = 5

// clusterGraph regenerates the exact graph the shard processes build
// from the matching -graph spec.
func clusterGraph(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.Graph500Params(scale, 16), clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func serialClusterDepths(t *testing.T, g *graph.Graph, source uint32) []int32 {
	t.Helper()
	r, err := bfs.RunSerial(g, source)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int32, g.NumVertices())
	for v := range depth {
		depth[v] = r.Depth(uint32(v))
	}
	return depth
}

// startShard launches one bfsd shard process on addr (reusing a port
// pins a restarted shard to its old identity).
func startShard(t *testing.T, addr string, id, shards, scale int, ckptDir string, extra ...string) *daemon {
	t.Helper()
	d := &daemon{addr: addr, logs: &bytes.Buffer{}}
	args := []string{
		"-addr", d.addr,
		"-shard-id", strconv.Itoa(id), "-shards", strconv.Itoa(shards),
		"-graph", fmt.Sprintf("rmat:scale=%d,ef=16,seed=%d", scale, clusterSeed),
	}
	if ckptDir != "" {
		args = append(args, "-checkpoint-dir", ckptDir)
	}
	d.cmd = exec.Command(bfsdBin, append(args, extra...)...)
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_, _ = d.cmd.Process.Wait()
		}
	})
	return d
}

// startShards launches groups x replicas shard processes (group-major),
// waits until each is ready, and returns them with the comma-separated
// URL list a coordinator's -coordinate takes. ckptDirs may be nil.
// front, when non-nil, maps shard i's address to the URL the
// coordinator is given in its place (a test-owned proxy).
func startShards(t *testing.T, groups, replicas, scale int, ckptDirs []string, front func(i int, addr string) string) ([]*daemon, string) {
	t.Helper()
	shards := make([]*daemon, groups*replicas)
	urls := make([]string, len(shards))
	for i := range shards {
		dir := ""
		if ckptDirs != nil {
			dir = ckptDirs[i]
		}
		shards[i] = startShard(t, freePort(t), i/replicas, groups, scale, dir, "-replica-id", strconv.Itoa(i%replicas))
		urls[i] = "http://" + shards[i].addr
		if front != nil {
			urls[i] = front(i, shards[i].addr)
		}
	}
	for _, s := range shards {
		s.waitReady(t)
	}
	return shards, strings.Join(urls, ",")
}

// startCluster brings up groups x replicas shard processes plus a
// coordinator and waits until the cluster is assembled. ckptDirs and
// front are as for startShards.
func startCluster(t *testing.T, groups, replicas, scale int, ckptDirs []string, front func(i int, addr string) string, coordArgs ...string) (*daemon, []*daemon) {
	t.Helper()
	shards, urls := startShards(t, groups, replicas, scale, ckptDirs, front)
	co := startDaemon(t, append([]string{"-coordinate", urls, "-replicas", strconv.Itoa(replicas)}, coordArgs...)...)
	co.waitReady(t)
	return co, shards
}

// proxyShard starts a test-owned reverse proxy in front of the shard
// process at addr and returns the URL to give the coordinator in the
// shard's place. configure, when non-nil, customises the proxy before
// it serves its first request.
func proxyShard(t *testing.T, addr string, configure func(*httputil.ReverseProxy)) string {
	t.Helper()
	p := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: addr})
	if configure != nil {
		configure(p)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return srv.URL
}

// isExpand reports whether r is a round message.
func isExpand(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/shard/expand") }

// signalFailedExpands makes p answer 502 and signal the returned
// channel whenever it cannot forward a round message because the shard
// behind it is down. A request the coordinator cancelled is not one.
func signalFailedExpands(p *httputil.ReverseProxy) <-chan struct{} {
	failed := make(chan struct{}, 1)
	p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		if isExpand(r) && r.Context().Err() == nil {
			select {
			case failed <- struct{}{}:
			default:
			}
		}
		w.WriteHeader(http.StatusBadGateway)
	}
	return failed
}

// clusterBFS posts one query and decodes the reply; 206 (degraded) is
// returned alongside the response, any other non-200 fails the test.
func clusterBFS(t *testing.T, co *daemon, source uint32, includeDepth bool) (*clusterBFSResponse, int) {
	t.Helper()
	body, _ := json.Marshal(clusterBFSRequest{Source: source, IncludeDepth: includeDepth})
	resp, err := http.Post(co.url("/cluster/bfs"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /cluster/bfs: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("POST /cluster/bfs: HTTP %d: %s\ncoordinator logs:\n%s", resp.StatusCode, raw, co.logs)
	}
	var out clusterBFSResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return &out, resp.StatusCode
}

func assertClusterExact(t *testing.T, res *clusterBFSResponse, want []int32) {
	t.Helper()
	if res.Incomplete {
		t.Fatalf("healthy cluster returned incomplete result (dead shards %v)", res.DeadShards)
	}
	if len(res.Depth) != len(want) {
		t.Fatalf("response depth covers %d vertices, want %d", len(res.Depth), len(want))
	}
	for v := range want {
		if res.Depth[v] != want[v] {
			t.Fatalf("vertex %d: distributed depth %d, serial depth %d", v, res.Depth[v], want[v])
		}
	}
}

// TestClusterExactDepths: a real 3-process cluster answers with exactly
// the serial BFS depths, level sizes included, for multiple sources.
// Send loss is drilled in-process (cluster/coord TestChaoticWireStillExact).
func TestClusterExactDepths(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	co, _ := startCluster(t, 3, 1, scale, nil, nil)
	for _, source := range []uint32{0, 2} {
		want := serialClusterDepths(t, g, source)
		res, status := clusterBFS(t, co, source, true)
		if status != http.StatusOK {
			t.Fatalf("healthy query: HTTP %d", status)
		}
		assertClusterExact(t, res, want)
		var levels []int64
		for _, d := range want {
			if d >= 0 {
				for int(d) >= len(levels) {
					levels = append(levels, 0)
				}
				levels[d]++
			}
		}
		if len(res.ClaimedPerRound) != len(levels) {
			t.Fatalf("source %d: %d claiming rounds, serial BFS has %d levels", source, len(res.ClaimedPerRound), len(levels))
		}
		for r, n := range levels {
			if res.ClaimedPerRound[r] != n {
				t.Fatalf("source %d round %d: claimed %d, serial level size %d", source, r, res.ClaimedPerRound[r], n)
			}
		}
	}
}

// TestClusterShardSIGKILLRecovery: while a stream of queries runs, one
// shard is SIGKILLed and relaunched (same port, same checkpoint dir).
// Every query that completes must carry exact depths — the protocol may
// retry or restart epochs, but it must never serve a wrong or partial
// answer for a shard that comes back inside the recovery budget.
func TestClusterShardSIGKILLRecovery(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	want := serialClusterDepths(t, g, 0)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	// The coordinator reaches the victim through a proxy, which holds a
	// round message while the test kills the shard and then reports the
	// message failing against it.
	gate := newExpandGate()
	defer gate.release() // before the proxy closes: it waits for it
	var failed <-chan struct{}
	co, shards := startCluster(t, 3, 1, scale, dirs, func(i int, addr string) string {
		if i != 1 {
			return "http://" + addr
		}
		return proxyShard(t, addr, func(p *httputil.ReverseProxy) {
			gate.install(p)
			failed = signalFailedExpands(p)
		})
	}, "-recovery-budget", "30s", "-heartbeat", "50ms")

	stream := startQueryStream(co, func(res *clusterBFSResponse, status int) (bool, error) {
		switch {
		case res == nil:
			return false, fmt.Errorf("query failed with HTTP %d", status)
		case res.Incomplete:
			return false, fmt.Errorf("query degraded (dead shards %v) though the shard came back in budget", res.DeadShards)
		}
		if err := depthMismatch(res, want); err != nil {
			return false, fmt.Errorf("after recovery: %w", err)
		}
		return res.Retries > 0 || res.EpochRestarts > 0, nil
	})

	// Let a healthy query land, SIGKILL shard 1 while a round message to
	// it is held, and relaunch it from its checkpoint directory once that
	// message has failed: the query holding that round is retrying.
	stream.await(t, 1)
	gate.armed.Store(true)
	stream.wait(t, gate.parked, "a round message to hold")
	victim := shards[1]
	victim.kill(t)
	gate.release()
	stream.wait(t, failed, "the held round message failing against the killed shard")
	reborn := startShard(t, victim.addr, 1, 3, scale, dirs[1])
	reborn.waitReady(t)

	// The query caught by the crash finishes, and one more runs wholly
	// on the recovered cluster.
	stream.await(t, 2)
	queries, recoveries, failure := stream.finish()
	if failure != nil {
		t.Fatalf("%v\ncoordinator logs:\n%s\nvictim logs:\n%s", failure, co.logs, victim.logs)
	}
	if queries < 2 {
		t.Fatalf("only %d queries completed; stream never straddled the crash", queries)
	}
	if recoveries == 0 {
		t.Fatalf("none of %d queries observed retries or epoch restarts; the kill was invisible (logs:\n%s)", queries, co.logs)
	}
	t.Logf("%d queries, %d saw recovery machinery engage", queries, recoveries)
}

// depthMismatch reports the first vertex whose depth in res differs
// from want.
func depthMismatch(res *clusterBFSResponse, want []int32) error {
	for v := range want {
		if res.Depth[v] != want[v] {
			return fmt.Errorf("vertex %d: depth %d, serial %d", v, res.Depth[v], want[v])
		}
	}
	return nil
}

// expandGate, once armed, parks the first round message of round 1 or
// later that reaches any proxy it is installed in, until released.
type expandGate struct {
	armed  atomic.Bool
	parked chan struct{} // closed once a message is parked
	hold   chan struct{}
	once   sync.Once
}

func newExpandGate() *expandGate {
	return &expandGate{parked: make(chan struct{}), hold: make(chan struct{})}
}

func (g *expandGate) release() { g.once.Do(func() { close(g.hold) }) }

// install makes p consult the gate before forwarding each request.
func (g *expandGate) install(p *httputil.ReverseProxy) {
	forward := p.Director
	p.Director = func(r *http.Request) {
		forward(r)
		if !g.armed.Load() || !isExpand(r) || r.Body == nil {
			return
		}
		body, err := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if err != nil {
			return
		}
		if f, err := coord.DecodeFrontier(body); err == nil && f.Round >= 1 && g.armed.CompareAndSwap(true, false) {
			close(g.parked)
			<-g.hold
		}
	}
}

// queryStream runs source-0 queries back to back against a coordinator
// until finished, tallying what its check reports.
type queryStream struct {
	progress chan struct{} // a token after each completed query
	stop     chan struct{}
	done     chan struct{} // closed when the stream goroutine exits

	mu      sync.Mutex
	queries int
	engaged int
	failure error
}

// startQueryStream starts a stream against co. check judges each reply:
// an error ends the stream, and engaged counts the replies that show
// recovery at work.
func startQueryStream(co *daemon, check func(res *clusterBFSResponse, status int) (engaged bool, err error)) *queryStream {
	s := &queryStream{
		progress: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			default:
			}
			engaged, err := check(clusterBFSNoFatal(co, 0))
			s.mu.Lock()
			s.queries++
			if engaged {
				s.engaged++
			}
			s.failure = err
			s.mu.Unlock()
			if err != nil {
				return
			}
			select {
			case s.progress <- struct{}{}:
			default:
			}
		}
	}()
	return s
}

func (s *queryStream) completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// await blocks until n more queries have completed.
func (s *queryStream) await(t *testing.T, n int) {
	t.Helper()
	target := s.completed() + n
	for s.completed() < target {
		s.wait(t, s.progress, fmt.Sprintf("query %d to complete", target))
	}
}

// wait blocks until ch fires. It fails the test if the stream stops
// first (a query failed) or a minute passes.
func (s *queryStream) wait(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-s.done:
		_, _, failure := s.finish()
		t.Fatalf("query stream stopped while waiting for %s: %v", what, failure)
	case <-time.After(time.Minute):
		t.Fatalf("waited a minute for %s", what)
	}
}

// finish stops the stream and returns its tallies.
func (s *queryStream) finish() (queries, engaged int, failure error) {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries, s.engaged, s.failure
}

// clusterBFSNoFatal is clusterBFS for goroutines: returns nil on any
// transport or status failure instead of failing the test.
func clusterBFSNoFatal(co *daemon, source uint32) (*clusterBFSResponse, int) {
	body, _ := json.Marshal(clusterBFSRequest{Source: source, IncludeDepth: true})
	resp, err := http.Post(co.url("/cluster/bfs"), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent) {
		return nil, resp.StatusCode
	}
	var out clusterBFSResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, resp.StatusCode
	}
	return &out, resp.StatusCode
}

// TestClusterDegradedPartialResult: a shard SIGKILLed and never
// relaunched must not hang the cluster — past the recovery budget the
// query returns HTTP 206 with the dead shard named and its vertex range
// unreached, while the surviving shards' depths remain sound.
func TestClusterDegradedPartialResult(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	serial := serialClusterDepths(t, g, 0)
	co, shards := startCluster(t, 3, 1, scale, nil, nil,
		"-recovery-budget", "500ms", "-max-attempts", "2", "-heartbeat", "50ms")

	res, status := clusterBFS(t, co, 0, true) // healthy baseline
	if status != http.StatusOK || res.Incomplete {
		t.Fatalf("baseline query: HTTP %d, incomplete=%v", status, res.Incomplete)
	}

	shards[2].kill(t)
	start := time.Now()
	res, status = clusterBFS(t, co, 0, true)
	if status != http.StatusPartialContent {
		t.Fatalf("degraded query returned HTTP %d, want 206", status)
	}
	if !res.Incomplete || len(res.DeadShards) != 1 || res.DeadShards[0] != 2 {
		t.Fatalf("degraded response: incomplete=%v dead=%v, want incomplete with shard 2 dead", res.Incomplete, res.DeadShards)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("degraded query took %v; the recovery budget is not bounding it", elapsed)
	}
	lo, hi := coord.PartitionRange(g.NumVertices(), 3, 2)
	for v := lo; v < hi; v++ {
		if res.Depth[v] != -1 {
			t.Fatalf("vertex %d in dead shard's range has depth %d, want -1", v, res.Depth[v])
		}
	}
	if res.Depth[0] != 0 {
		t.Fatalf("source depth %d in degraded result", res.Depth[0])
	}
	for v, d := range res.Depth {
		if d >= 0 && (serial[v] < 0 || d < serial[v]) {
			t.Fatalf("vertex %d: degraded depth %d beats serial %d", v, d, serial[v])
		}
	}
	if res.Visited == 0 || res.Visited >= int64(g.NumVertices()) {
		t.Fatalf("degraded run visited %d of %d vertices; expected a proper subset", res.Visited, g.NumVertices())
	}
}
