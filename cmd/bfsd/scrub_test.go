//go:build unix

package main

// Process-level silent-fault smoke: the serving daemon's background
// scrubber quarantining and healing a bit-flipped mmap'd artifact with
// no corrupted answer ever served, and a replicated cluster outvoting
// a replica whose responses a proxy corrupts while staying
// depth-exact. The CI scrub-smoke job runs these at scale 14 under
// -race.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httputil"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"fastbfs/cluster/coord"
	"fastbfs/graph/gen"
)

// flipFileByte XORs one byte of an artifact in place — bit rot, as dd
// would inflict it.
func flipFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// readyzState decodes /readyz regardless of its status code.
func readyzState(t *testing.T, d *daemon) (ready bool, quarantined bool, scrubErr string) {
	t.Helper()
	resp, err := http.Get(d.url("/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs struct {
		Ready  bool `json:"ready"`
		Graphs []struct {
			Quarantined bool   `json:"quarantined"`
			ScrubError  string `json:"scrub_error"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	for _, g := range rs.Graphs {
		if g.Quarantined {
			return rs.Ready, true, g.ScrubError
		}
	}
	return rs.Ready, false, ""
}

// TestServeScrubQuarantineHeal: a byte of a served mmap'd graph
// artifact is flipped on disk behind the daemon's back. Within one
// scrub interval the daemon must quarantine the graph (readyz down,
// queries refused — never answered from the corrupt bytes) and, once
// the file heals in place, lift the quarantine on its own.
func TestServeScrubQuarantineHeal(t *testing.T) {
	grid, err := gen.Grid2D(64, 64, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := saveGraphFile(t, grid, t.TempDir(), "grid.csr")
	d := startDaemon(t, "-scrub-interval", "100ms", "-state-dir", t.TempDir())
	d.waitReady(t)
	d.loadGraph(t, "g", path, true)
	want := d.allDepths(t, "g", 0)

	// Flip the last payload byte: the 12-byte CRC footer after it still
	// records what the bytes should hash to.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() - 13
	flipFileByte(t, path, off)

	deadline := time.Now().Add(15 * time.Second)
	for {
		ready, quarantined, scrubErr := readyzState(t, d)
		if quarantined {
			if ready {
				t.Fatalf("daemon still ready while its only graph is quarantined; logs:\n%s", d.logs)
			}
			if scrubErr == "" {
				t.Fatal("quarantined graph reports no scrub error detail")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corrupt artifact never quarantined; logs:\n%s", d.logs)
		}
		time.Sleep(25 * time.Millisecond)
	}
	req := map[string]any{"graph": "g", "source": 0, "all_depths": true}
	if code := d.postJSON(t, "/query", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("query on quarantined graph: HTTP %d, want 503", code)
	}

	// Heal the artifact in place; the mmap aliases it, so the next pass
	// verifies clean and reopens the graph without a restart.
	flipFileByte(t, path, off)
	deadline = time.Now().Add(15 * time.Second)
	for {
		ready, quarantined, _ := readyzState(t, d)
		if ready && !quarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed artifact never lifted the quarantine; logs:\n%s", d.logs)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := d.allDepths(t, "g", 0); !reflect.DeepEqual(got, want) {
		t.Fatal("depths after quarantine recovery differ from pre-corruption depths")
	}
}

// TestClusterAuditOutvotesDivergence: a 2x3 replicated process cluster
// in which one replica of each group answers every round with a
// corrupted response must detect the divergent reply, outvote it, and
// still answer with exactly the serial depths. The corruption is a
// proxy in front of replica 2 that adds one to each reply's claimed
// count and re-encodes it as a valid frame, so only the audit can tell.
func TestClusterAuditOutvotesDivergence(t *testing.T) {
	const groups, replicas = 2, 3
	scale := clusterScale(t)
	g := clusterGraph(t, scale)
	want := serialClusterDepths(t, g, 1)
	co, _ := startCluster(t, groups, replicas, scale, nil, func(i int, addr string) string {
		if i%replicas != 2 {
			return "http://" + addr
		}
		return proxyShard(t, addr, func(p *httputil.ReverseProxy) { p.ModifyResponse = overclaim })
	})
	res, code := clusterBFS(t, co, 1, true)
	if code != http.StatusOK {
		t.Fatalf("cluster BFS: HTTP %d, want 200; logs:\n%s", code, co.logs)
	}
	assertClusterExact(t, res, want)
	if res.Divergences == 0 {
		t.Fatalf("corrupted replica responses but none were detected; logs:\n%s", co.logs)
	}
	t.Logf("%d divergences outvoted", res.Divergences)
}

// overclaim rewrites a successful expand reply to claim one vertex more
// than the shard did: a well-formed answer that its honest siblings
// contradict.
func overclaim(resp *http.Response) error {
	if !isExpand(resp.Request) || resp.StatusCode != http.StatusOK {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r, err := coord.DecodeExpandResponse(body)
	if err != nil {
		return err
	}
	r.Claimed++
	body = r.Encode()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return nil
}
