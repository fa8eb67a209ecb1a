//go:build unix

package main

// Process-level HA harness: replicated shard groups surviving SIGKILL
// with exact results, a journaled standby coordinator taking over an
// in-flight epoch, fencing of a deposed-but-alive coordinator, boot
// order independence of registration, and the shard /readyz probe.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"fastbfs/cluster/coord"
)

// startCoordinatorAt launches a bfsd coordinator pinned to addr (the
// boot-order test needs shards dialing the address before the process
// exists).
func startCoordinatorAt(t *testing.T, addr string, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: addr, logs: &bytes.Buffer{}}
	d.cmd = exec.Command(bfsdBin, append([]string{"-addr", addr}, args...)...)
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

// stopAndLogs SIGKILLs a daemon, reaps it via cmd.Wait — which also
// joins the goroutines copying its output into d.logs — and returns
// the complete log text, race-free.
func stopAndLogs(d *daemon) string {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	return d.logs.String()
}

// TestClusterReplicaFailover: with R=2, SIGKILLing one replica mid-
// query-stream costs nothing — every query that completes carries exact
// depths over HTTP 200, with the coordinator recording failovers
// instead of degrading. Killing the group's second replica then
// degrades to the typed 206 path with the dead group named.
func TestClusterReplicaFailover(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	want := serialClusterDepths(t, g, 0)
	// The coordinator reaches the victim through a proxy, which reports
	// the first round message that finds it dead.
	var failed <-chan struct{}
	co, shards := startCluster(t, 2, 2, scale, nil, func(i int, addr string) string {
		if i != 0 {
			return "http://" + addr
		}
		return proxyShard(t, addr, func(p *httputil.ReverseProxy) { failed = signalFailedExpands(p) })
	}, "-recovery-budget", "1s", "-max-attempts", "2", "-heartbeat", "50ms")

	res, status := clusterBFS(t, co, 0, true)
	if status != http.StatusOK {
		t.Fatalf("baseline query: HTTP %d", status)
	}
	assertClusterExact(t, res, want)

	stream := startQueryStream(co, func(res *clusterBFSResponse, status int) (bool, error) {
		switch {
		case res == nil:
			return false, fmt.Errorf("query failed with HTTP %d", status)
		case status != http.StatusOK || res.Incomplete:
			return false, fmt.Errorf("query degraded (HTTP %d, dead groups %v) though a replica survives", status, res.DeadShards)
		}
		if err := depthMismatch(res, want); err != nil {
			return false, fmt.Errorf("after failover: %w", err)
		}
		return res.Failovers > 0, nil
	})

	// SIGKILL group 0's primary replica mid-stream; it never comes back.
	// The query whose round failed against it fails over, and one more
	// runs after it.
	stream.await(t, 1)
	shards[0].kill(t)
	stream.wait(t, failed, "a round message failing against the killed replica")
	stream.await(t, 2)
	q, f, failure := stream.finish()
	if failure != nil {
		t.Fatalf("%v\ncoordinator logs:\n%s", failure, co.logs)
	}
	if q < 2 {
		t.Fatalf("only %d queries completed; stream never straddled the kill", q)
	}
	if f == 0 {
		t.Fatalf("none of %d queries recorded a failover; the kill was invisible", q)
	}
	t.Logf("%d queries, %d failed over to the surviving replica", q, f)

	// Kill the surviving sibling: the whole group is gone, so the next
	// query must degrade (206) with group 0 listed dead.
	shards[1].kill(t)
	res, status = clusterBFS(t, co, 0, true)
	if status != http.StatusPartialContent {
		t.Fatalf("whole-group death returned HTTP %d, want 206", status)
	}
	if !res.Incomplete || len(res.DeadShards) != 1 || res.DeadShards[0] != 0 {
		t.Fatalf("degraded response: incomplete=%v dead=%v, want incomplete with group 0 dead", res.Incomplete, res.DeadShards)
	}
}

// TestClusterStandbyTakeover: the active coordinator journals per-round
// epoch state and mirrors it to a standby; SIGKILLing the active mid-
// query promotes the standby, which finishes the in-flight epoch from
// the journaled round (no epoch restart — shards replay their cached
// rounds) and then serves fresh queries exactly.
func TestClusterStandbyTakeover(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	want := serialClusterDepths(t, g, 0)
	// The coordinator reaches the shards through proxies that, once
	// armed, hold a round message back, so the SIGKILL lands mid-epoch.
	gate := newExpandGate()
	defer gate.release() // before the proxies close: they wait for it
	_, urls := startShards(t, 2, 1, scale, nil, func(_ int, addr string) string {
		return proxyShard(t, addr, gate.install)
	})
	active := startDaemon(t, "-coordinate", urls,
		"-state-dir", t.TempDir(), "-lease-ttl", "1s", "-heartbeat", "50ms")
	active.waitReady(t)
	standby := startDaemon(t, "-standby-of", active.url(""),
		"-state-dir", t.TempDir(), "-lease-ttl", "1s", "-heartbeat", "50ms")

	res, status := clusterBFS(t, active, 0, true)
	if status != http.StatusOK {
		t.Fatalf("baseline query: HTTP %d", status)
	}
	assertClusterExact(t, res, want)

	// Launch a query whose first message of round 1 or later is held,
	// and SIGKILL the active once the standby's mirror holds that epoch
	// mid-flight; the client's connection dies with it.
	gate.armed.Store(true)
	go func() {
		body, _ := json.Marshal(clusterBFSRequest{Source: 0})
		resp, err := http.Post(active.url("/cluster/bfs"), "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	e := waitMirror(t, standby, active, "an in-flight epoch past round 0", func(st coord.JournalState) bool {
		return st.Epoch != nil && st.Epoch.Epoch != res.Epoch && !st.Epoch.Done && st.Epoch.Round >= 1
	}).Epoch
	active.kill(t)
	gate.release()
	t.Logf("killed the active with epoch %d mirrored at round %d", e.Epoch, e.Round)

	// The standby notices the unrenewed lease, takes over, and resumes
	// the journaled epoch; /readyz flips to 200 only after that.
	standby.waitReady(t)
	res, status = clusterBFS(t, standby, 0, true)
	if status != http.StatusOK {
		t.Fatalf("post-takeover query: HTTP %d", status)
	}
	assertClusterExact(t, res, want)

	// Log assertions want the process fully reaped first: cmd.Wait (not
	// Process.Wait) joins the output-copier goroutines feeding d.logs.
	logs := stopAndLogs(standby)
	if !bytes.Contains([]byte(logs), []byte("standby: takeover complete")) {
		t.Fatalf("standby never logged its takeover:\n%s", logs)
	}
	if !bytes.Contains([]byte(logs), []byte(fmt.Sprintf("resumed in-flight epoch %d ", e.Epoch))) {
		t.Fatalf("standby never resumed the journaled epoch:\n%s", logs)
	}
	if !bytes.Contains([]byte(logs), []byte("epoch restarts 0")) {
		t.Fatalf("resume restarted the epoch instead of replaying checkpointed rounds:\n%s", logs)
	}
}

// waitMirror polls the standby's mirrored journal (its own
// GET /cluster/state) until ready accepts it, and returns it. what
// names the awaited state for the failure message.
func waitMirror(t *testing.T, standby, active *daemon, what string, ready func(coord.JournalState) bool) coord.JournalState {
	t.Helper()
	var st coord.JournalState
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(standby.url("/cluster/state")); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			frames, _ := coord.SplitFrames(body)
			for _, rec := range frames {
				if l, err := coord.DecodeLease(rec); err == nil {
					st.Lease = l
				}
				if a, err := coord.DecodeGroupAssignment(rec); err == nil {
					st.Assignment = a
				}
				if e, err := coord.DecodeEpochState(rec); err == nil {
					st.Epoch = e
				}
			}
			if ready(st) {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("the standby's mirror never showed %s (last epoch %+v); active logs:\n%s", what, st.Epoch, active.logs)
	return st
}

// TestMirrorPushKeepsRoundBehindLease: a lease renewal journaled while
// a push is in flight must not cost the standby the round record
// appended just before it. A takeover in that window would resume a
// round the shards have already passed, which forces an epoch restart.
func TestMirrorPushKeepsRoundBehindLease(t *testing.T) {
	openJournal := func() *coord.Journal {
		j, err := coord.OpenJournal(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return j
	}
	standby := &coordServer{journal: openJournal()}
	entered, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	pushed := make(chan struct{}, 2) // the held push and the one after it
	var first sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		first.Do(func() { close(entered); <-hold }) // the first push stays in flight
		standby.handleMirror(w, r)
		select {
		case pushed <- struct{}{}:
		default:
		}
	}))
	defer srv.Close()
	defer release() // before srv.Close, which waits for the held handler
	active := newCoordServer("127.0.0.1:0", clusterFlags{})
	active.journal = openJournal()
	active.journal.Mirror = active.mirrorHook
	active.standbyURL = srv.URL
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go active.mirrorPusher(ctx)

	round := func(r uint32) {
		if err := active.journal.AppendEpoch(&coord.EpochState{Epoch: 7, Fence: 1, Round: r}); err != nil {
			t.Fatal(err)
		}
	}
	round(1)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no push reached the standby")
	}
	round(2)
	if err := active.publishLease(); err != nil {
		t.Fatal(err)
	}
	release()
	for i := 1; i <= 2; i++ {
		select {
		case <-pushed:
		case <-time.After(10 * time.Second):
			t.Fatalf("push %d never reached the standby", i)
		}
	}
	if st := standby.journal.State(); st.Epoch == nil || st.Epoch.Round != 2 || st.Lease == nil {
		t.Fatalf("standby mirror holds epoch %+v, lease %+v; want round 2 and the renewed lease", st.Epoch, st.Lease)
	}
}

// TestClusterStaleCoordinatorFenced: the active coordinator is frozen
// (SIGSTOP, as a long GC or VM pause would) until its lease expires, so
// the standby takes over while the old coordinator still exists. Once
// the new coordinator's fencing token has reached the shards, the
// resumed old one's queries come back as typed 409s — never half-
// applied rounds.
func TestClusterStaleCoordinatorFenced(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	want := serialClusterDepths(t, g, 0)
	_, urls := startShards(t, 2, 1, scale, nil, nil)
	active := startDaemon(t, "-coordinate", urls,
		"-state-dir", t.TempDir(), "-lease-ttl", "700ms", "-heartbeat", "50ms")
	active.waitReady(t)
	standby := startDaemon(t, "-standby-of", active.url(""),
		"-state-dir", t.TempDir(), "-lease-ttl", "700ms", "-heartbeat", "50ms")

	// The standby can only take over a lease and an assignment it has
	// mirrored. Then the active stops renewing while it is frozen.
	waitMirror(t, standby, active, "a lease and a shard assignment", func(st coord.JournalState) bool {
		return st.Lease != nil && st.Assignment != nil
	})
	if err := active.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	standby.waitReady(t)

	// The new coordinator's first query raises the shards' fencing bar.
	res, status := clusterBFS(t, standby, 0, true)
	if status != http.StatusOK {
		t.Fatalf("promoted standby query: HTTP %d", status)
	}
	assertClusterExact(t, res, want)
	if err := active.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}

	// The deposed coordinator's next round is fenced: typed 409, and it
	// marks itself deposed (503 on /readyz) rather than retrying.
	if res, status := clusterBFSNoFatal(active, 0); res != nil || status != http.StatusConflict {
		t.Fatalf("stale coordinator answered HTTP %d, want 409", status)
	}
	resp, err := http.Get(active.url("/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deposed coordinator /readyz returned %d, want 503", resp.StatusCode)
	}

	// The promoted coordinator keeps serving exactly.
	res, status = clusterBFS(t, standby, 0, true)
	if status != http.StatusOK {
		t.Fatalf("second standby query: HTTP %d", status)
	}
	assertClusterExact(t, res, want)
}

// TestClusterBootOrder: shards started before the coordinator keep
// retrying registration with backoff, so boot order does not matter —
// the cluster assembles once the coordinator appears.
func TestClusterBootOrder(t *testing.T) {
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	want := serialClusterDepths(t, g, 0)
	coordAddr := freePort(t)

	// Until the coordinator starts, a placeholder on its address refuses
	// every registration with 503, the shards' retry path, and notes
	// which shard called. The coordinator starts only once every shard
	// has been refused at least once.
	l, err := net.Listen("tcp", coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	refused := map[[2]int]bool{}
	allRefused := make(chan struct{})
	placeholder := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			ID      int `json:"id"`
			Replica int `json:"replica"`
		}
		if r.URL.Path == "/cluster/register" && json.NewDecoder(r.Body).Decode(&body) == nil {
			mu.Lock()
			if !refused[[2]int{body.ID, body.Replica}] {
				refused[[2]int{body.ID, body.Replica}] = true
				if len(refused) == 4 {
					close(allRefused)
				}
			}
			mu.Unlock()
		}
		http.Error(w, "coordinator not started", http.StatusServiceUnavailable)
	})}
	go placeholder.Serve(l)
	defer placeholder.Close()

	for gid := 0; gid < 2; gid++ {
		for r := 0; r < 2; r++ {
			startShard(t, freePort(t), gid, 2, scale, "",
				"-replica-id", strconv.Itoa(r), "-coordinator", "http://"+coordAddr)
		}
	}
	select {
	case <-allRefused:
	case <-time.After(time.Minute):
		t.Fatal("not every shard tried to register within a minute")
	}
	placeholder.Close()
	co := startCoordinatorAt(t, coordAddr, "-coordinate", "auto", "-shards", "2", "-replicas", "2")
	co.waitReady(t)
	res, status := clusterBFS(t, co, 0, true)
	if status != http.StatusOK {
		t.Fatalf("query after late assembly: HTTP %d", status)
	}
	assertClusterExact(t, res, want)
}

// TestShardReadyz: the shard readiness probe reports replica identity,
// protocol position, fencing token and checkpoint-dir writability — and
// flips to 503 when the checkpoint directory stops accepting writes.
func TestShardReadyz(t *testing.T) {
	scale := clusterScale(t)
	dir := t.TempDir()
	ckpt := dir + "/ckpt"
	if err := os.Mkdir(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	primary := startShard(t, freePort(t), 0, 2, scale, ckpt)
	primary.waitReady(t)

	var out shardReadyz
	getReadyz := func(d *daemon) int {
		t.Helper()
		resp, err := http.Get(d.url("/readyz"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out = shardReadyz{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	if status := getReadyz(primary); status != http.StatusOK {
		t.Fatalf("/readyz returned %d: %+v", status, out)
	}
	if out.Role != "primary" || out.Group != 0 || out.Replica != 0 {
		t.Fatalf("identity %q group %d replica %d, want primary 0/0", out.Role, out.Group, out.Replica)
	}
	if out.Lo != 0 || out.Hi == 0 || out.Epoch != 0 || out.Fence != 0 {
		t.Fatalf("fresh shard reports lo=%d hi=%d epoch=%d fence=%d", out.Lo, out.Hi, out.Epoch, out.Fence)
	}
	if !out.CheckpointWritable || out.CheckpointDir != ckpt {
		t.Fatalf("checkpoint probe: writable=%v dir=%q", out.CheckpointWritable, out.CheckpointDir)
	}

	secondary := startShard(t, freePort(t), 1, 2, scale, "", "-replica-id", "1")
	secondary.waitReady(t)
	if status := getReadyz(secondary); status != http.StatusOK {
		t.Fatalf("secondary /readyz returned %d: %+v", status, out)
	}
	if out.Role != "secondary" || out.Group != 1 || out.Replica != 1 {
		t.Fatalf("identity %q group %d replica %d, want secondary 1/1", out.Role, out.Group, out.Replica)
	}

	// Break the checkpoint directory (a file now occupies its path): the
	// shard can no longer persist rounds, so it must stop claiming ready.
	if err := os.RemoveAll(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status := getReadyz(primary); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with broken checkpoint dir returned %d, want 503 (%+v)", status, out)
	}
	if out.CheckpointWritable || out.CheckpointError == "" {
		t.Fatalf("broken checkpoint dir not reported: %+v", out)
	}
}
