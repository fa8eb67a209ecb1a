//go:build unix

package main

// Process-level crash harness for the durable control plane: these
// tests build the real bfsd binary, run it against a shared state
// directory, SIGKILL it at randomized points while query and mutation
// traffic is in flight, then restart it and assert the journal brings
// back exactly the acknowledged graph set with byte-identical depths.
// A SIGTERM variant checks the graceful path: drain, clean exit,
// recovery, counters reset.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

var bfsdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bfsd-harness")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	bfsdBin = filepath.Join(dir, "bfsd")
	out, err := exec.Command("go", "build", "-o", bfsdBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building bfsd: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// daemon is one live bfsd process under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *bytes.Buffer
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches bfsd on a fresh port with the given extra args.
// The process is killed at test cleanup if still running.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: freePort(t), logs: &bytes.Buffer{}}
	d.cmd = exec.Command(bfsdBin, append([]string{"-addr", d.addr}, args...)...)
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

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitReady polls /readyz until it returns 200 or the deadline passes.
func (d *daemon) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon never became ready; logs:\n%s", d.logs)
}

// kill SIGKILLs the daemon and reaps it — the crash under test.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = d.cmd.Process.Wait()
}

// postJSON posts body to path and decodes the response into out (when
// non-nil). Returns the HTTP status.
func (d *daemon) postJSON(t *testing.T, path string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url(path), "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// loadGraph POSTs /graphs/load and fails the test unless it is acked.
func (d *daemon) loadGraph(t *testing.T, name, path string, mmap bool) {
	t.Helper()
	req := map[string]any{"name": name, "path": path, "mmap": mmap}
	if code := d.postJSON(t, "/graphs/load", req, nil); code != http.StatusOK {
		t.Fatalf("load %q: HTTP %d; logs:\n%s", name, code, d.logs)
	}
}

// graphNames fetches the currently served graph set, sorted.
func (d *daemon) graphNames(t *testing.T) []string {
	t.Helper()
	resp, err := http.Get(d.url("/graphs"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(infos))
	for _, gi := range infos {
		names = append(names, gi.Name)
	}
	sort.Strings(names)
	return names
}

// allDepths queries every depth from source over HTTP.
func (d *daemon) allDepths(t *testing.T, graphName string, source uint32) []int32 {
	t.Helper()
	var resp struct {
		Depths []int32 `json:"depths"`
	}
	req := map[string]any{"graph": graphName, "source": source, "all_depths": true}
	if code := d.postJSON(t, "/query", req, &resp); code != http.StatusOK {
		t.Fatalf("query %q: HTTP %d; logs:\n%s", graphName, code, d.logs)
	}
	return resp.Depths
}

// refDepths is the in-process serial reference for a saved graph file.
func refDepths(t *testing.T, path string, source uint32) []int32 {
	t.Helper()
	g, err := graph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
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

func saveGraphFile(t *testing.T, g *graph.Graph, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCrashRecoveryMidTraffic is the headline crash harness: several
// rounds of load/unload mutations and concurrent query + churn traffic,
// each round ended by a SIGKILL at a randomized point. Every restart
// must serve exactly the acknowledged graph set — the churn graph,
// whose mutations race the kill, may land on either side — and depths
// must be byte-identical to the serial reference.
func TestCrashRecoveryMidTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(30, 30, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.Graph500Params(10, 8), 7)
	if err != nil {
		t.Fatal(err)
	}
	gridPath := saveGraphFile(t, grid, dir, "grid.csr")
	rmatPath := saveGraphFile(t, rmat, dir, "rmat.csr")
	paths := map[string]string{}

	rng := rand.New(rand.NewSource(1))
	acked := map[string]bool{} // graph set implied by acked mutations
	expect := func() []string {
		var names []string
		for name := range acked {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}

	const rounds = 4
	for round := 0; round < rounds; round++ {
		d := startDaemon(t, "-state-dir", stateDir, "-snapshot-every", "8")
		d.waitReady(t)
		if got, want := d.graphNames(t), expect(); !equalTolerating(got, want, "churn") {
			t.Fatalf("round %d: recovered graphs %v, want %v (churn optional); logs:\n%s",
				round, got, want, d.logs)
		}
		delete(acked, "churn") // normalize: re-acked below if churn wins again

		// Acked mutations for this round: one new graph (mmap on even
		// rounds), one unload of the graph from two rounds ago.
		name := fmt.Sprintf("g%d", round)
		src := gridPath
		if round%2 == 1 {
			src = rmatPath
		}
		d.loadGraph(t, name, src, round%2 == 0)
		paths[name] = src
		acked[name] = true
		if old := fmt.Sprintf("g%d", round-2); acked[old] {
			if code := d.postJSON(t, "/graphs/unload", map[string]any{"name": old}, nil); code != http.StatusOK {
				t.Fatalf("round %d: unload %q: HTTP %d", round, old, code)
			}
			delete(acked, old)
		}

		// Traffic: query hammers on the acked graphs plus a churn
		// goroutine looping load/unload so the SIGKILL can land inside a
		// journal append, not just between requests.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				names := expect()
				for {
					select {
					case <-stop:
						return
					default:
					}
					g := names[r.Intn(len(names))]
					body, _ := json.Marshal(map[string]any{"graph": g, "source": r.Intn(100)})
					resp, err := http.Post(d.url("/query"), "application/json", bytes.NewReader(body))
					if err != nil {
						return // daemon died mid-request: expected
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(int64(round*10 + i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op, name := "/graphs/load", map[string]any{"name": "churn", "path": gridPath}
				if i%2 == 1 {
					op, name = "/graphs/unload", map[string]any{"name": "churn"}
				}
				body, _ := json.Marshal(name)
				resp, err := http.Post(d.url(op), "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()

		time.Sleep(time.Duration(5+rng.Intn(40)) * time.Millisecond)
		d.kill(t)
		close(stop)
		wg.Wait()
		paths["churn"] = gridPath
	}

	// Simulate a crash mid-append on top of whatever the last kill left:
	// a partial frame at the journal tail must be truncated, not fatal.
	j := filepath.Join(stateDir, "manifest.log")
	f, err := os.OpenFile(j, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x03, 0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Final restart: exact acked set (churn optional), byte-exact depths.
	d := startDaemon(t, "-state-dir", stateDir)
	d.waitReady(t)
	got := d.graphNames(t)
	if !equalTolerating(got, expect(), "churn") {
		t.Fatalf("final recovery: graphs %v, want %v (churn optional); logs:\n%s", got, expect(), d.logs)
	}
	for _, name := range got {
		for _, source := range []uint32{0, 13} {
			want := refDepths(t, paths[name], source)
			if depths := d.allDepths(t, name, source); !equalDepths(depths, want) {
				t.Fatalf("graph %q source %d: depths diverge from serial reference after recovery", name, source)
			}
		}
	}
	d.kill(t)
}

// TestRestartUnderLoad is the graceful-path twin: SIGTERM under query
// load must drain and exit cleanly, and the restarted daemon must flip
// /readyz back, serve identical depths, and start from fresh counters.
func TestRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	g, err := gen.Grid2D(40, 40, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := saveGraphFile(t, g, dir, "g.csr")

	d1 := startDaemon(t, "-state-dir", stateDir)
	d1.waitReady(t)
	d1.loadGraph(t, "g", path, false)
	before := d1.allDepths(t, "g", 0)

	// SIGTERM goes out once every client has had a query answered, so the
	// drain always starts under load. A client that fails before its
	// first answer also releases the wait, and is caught below.
	const clients = 4
	stop := make(chan struct{})
	var wg, loaded sync.WaitGroup
	var answered atomic.Int32
	for i := 0; i < clients; i++ {
		wg.Add(1)
		loaded.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var first sync.Once
			defer first.Do(loaded.Done)
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]any{"graph": "g", "source": r.Intn(1600)})
				resp, err := http.Post(d1.url("/query"), "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				first.Do(func() {
					answered.Add(1)
					loaded.Done()
				})
			}
		}(int64(i))
	}
	loaded.Wait()
	if n := answered.Load(); n != clients {
		close(stop)
		t.Fatalf("only %d of %d clients had a query answered before SIGTERM; logs:\n%s", n, clients, d1.logs)
	}

	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- d1.cmd.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("SIGTERM drain did not exit cleanly: %v; logs:\n%s", err, d1.logs)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; logs:\n%s", d1.logs)
	}
	close(stop)
	wg.Wait()

	d2 := startDaemon(t, "-state-dir", stateDir)
	d2.waitReady(t)
	if got := d2.graphNames(t); len(got) != 1 || got[0] != "g" {
		t.Fatalf("recovered graphs %v, want [g]; logs:\n%s", got, d2.logs)
	}
	after := d2.allDepths(t, "g", 0)
	if !equalDepths(before, after) {
		t.Fatal("depths across SIGTERM restart differ")
	}

	// Counters are process state, not journal state: the restart resets
	// them, while the journal sequence survives.
	resp, err := http.Get(d2.url("/stats"))
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests   int64  `json:"requests"`
		JournalSeq uint64 `json:"journal_seq"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests > 4 {
		t.Fatalf("restarted daemon reports %d requests; counters not reset", stats.Requests)
	}
	if stats.JournalSeq == 0 {
		t.Fatal("restarted daemon reports journal_seq 0; durable state not surfaced")
	}
	d2.kill(t)
}

// equalTolerating reports got == want, except that `optional` may
// additionally appear in got (its mutations raced the crash).
func equalTolerating(got, want []string, optional string) bool {
	filtered := got[:0:0]
	for _, name := range got {
		if name != optional {
			filtered = append(filtered, name)
		}
	}
	if len(filtered) != len(want) {
		return false
	}
	for i := range want {
		if filtered[i] != want[i] {
			return false
		}
	}
	return true
}

func equalDepths(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
