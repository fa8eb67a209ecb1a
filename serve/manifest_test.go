package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fastbfs/graph/gen"
)

// reopen closes m and opens a fresh manifest over the same dir, as a
// restart would.
func reopen(t *testing.T, m *Manifest, every int) *Manifest {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m2, err := OpenManifest(m.dir, every)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return m2
}

func specs(names ...string) []GraphSpec {
	out := make([]GraphSpec, len(names))
	for i, n := range names {
		out[i] = GraphSpec{Name: n, Path: "/g/" + n + ".csr"}
	}
	return out
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, s := range specs("a", "b", "c") {
		if err := m.AppendLoad(s); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := m.AppendUnload("b"); err != nil {
		t.Fatalf("unload: %v", err)
	}
	// Reload of an existing name keeps its position but updates the spec.
	if err := m.AppendLoad(GraphSpec{Name: "a", Path: "/g/a2.csr", Mmap: true}); err != nil {
		t.Fatalf("reload: %v", err)
	}

	m2 := reopen(t, m, 100)
	defer m2.Close()
	got := m2.State()
	want := []GraphSpec{{Name: "a", Path: "/g/a2.csr", Mmap: true}, {Name: "c", Path: "/g/c.csr"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state after reopen = %+v, want %+v", got, want)
	}
	st := m2.Stats()
	if st.Seq != 5 || st.Records != 5 || st.TornBytes != 0 {
		t.Fatalf("stats = %+v, want seq 5, 5 records, no torn bytes", st)
	}
}

func TestManifestTornTailTruncated(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"partial-frame": {0xff, 0x03, 0x00, 0x00, 0x12, 0x34}, // length says 1023, nothing follows
		"random-bytes":  {0x41, 0x42, 0x43},
		"huge-length":   {0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x01},
		"zero-length":   {0x00, 0x00, 0x00, 0x00, 0x99, 0x99, 0x99, 0x99},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := OpenManifest(dir, 100)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for _, s := range specs("a", "b") {
				if err := m.AppendLoad(s); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			m.Close()
			journal := filepath.Join(dir, journalName)
			clean, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journal, append(clean, garbage...), 0o644); err != nil {
				t.Fatal(err)
			}

			m2, err := OpenManifest(dir, 100)
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer m2.Close()
			if got := m2.State(); !reflect.DeepEqual(got, specs("a", "b")) {
				t.Fatalf("state = %+v, want a,b", got)
			}
			if st := m2.Stats(); st.TornBytes != int64(len(garbage)) {
				t.Fatalf("TornBytes = %d, want %d", st.TornBytes, len(garbage))
			}
			// The torn bytes were physically truncated, so the journal is
			// clean for subsequent appends…
			if data, _ := os.ReadFile(journal); !bytes.Equal(data, clean) {
				t.Fatalf("journal not truncated back to the valid prefix")
			}
			// …and an append after recovery is replayable.
			if err := m2.AppendLoad(GraphSpec{Name: "c", Path: "/g/c.csr"}); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			m3 := reopen(t, m2, 100)
			defer m3.Close()
			if got := m3.State(); !reflect.DeepEqual(got, specs("a", "b", "c")) {
				t.Fatalf("state after append+reopen = %+v", got)
			}
		})
	}
}

func TestManifestMidRecordBitFlip(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs("a", "b", "c") {
		if err := m.AppendLoad(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	journal := filepath.Join(dir, journalName)
	data, _ := os.ReadFile(journal)
	// Flip one bit inside the SECOND record's payload: the CRC must
	// reject it, keeping record 1 and dropping records 2..3 (a valid
	// prefix, never a hole).
	firstEnd := frameEnd(t, data, 1)
	data[firstEnd+10] ^= 0x40
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m2.Close()
	if got := m2.State(); !reflect.DeepEqual(got, specs("a")) {
		t.Fatalf("state = %+v, want just a", got)
	}
}

// frameEnd returns the byte offset just past the nth frame (1-based).
func frameEnd(t *testing.T, data []byte, n int) int {
	t.Helper()
	off := len(manifestMagic)
	for i := 0; i < n; i++ {
		if off+8 > len(data) {
			t.Fatalf("journal shorter than %d frames", n)
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + l
	}
	return off
}

func TestManifestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs("a", "b", "c", "d", "e", "f") {
		if err := m.AppendLoad(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CompactionErr(); err != nil {
		t.Fatalf("compaction: %v", err)
	}
	st := m.Stats()
	if st.SnapshotSeq == 0 {
		t.Fatal("no snapshot taken after passing the threshold")
	}
	if st.Records >= 6 {
		t.Fatalf("journal not compacted: %d records", st.Records)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}

	m2 := reopen(t, m, 4)
	defer m2.Close()
	if got := m2.State(); !reflect.DeepEqual(got, specs("a", "b", "c", "d", "e", "f")) {
		t.Fatalf("state after compaction+reopen = %+v", got)
	}
	if got := m2.Stats().Seq; got != st.Seq {
		t.Fatalf("seq after reopen = %d, want %d", got, st.Seq)
	}
}

// TestManifestCompactionCrashWindow simulates a crash between the
// snapshot rename and the journal truncate: the journal still holds
// records the snapshot already covers. Replay must skip them instead of
// double-applying or treating them as corruption.
func TestManifestCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs("a", "b") {
		if err := m.AppendLoad(s); err != nil {
			t.Fatal(err)
		}
	}
	journal := filepath.Join(dir, journalName)
	preCompact, _ := os.ReadFile(journal)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendUnload("a"); err != nil {
		t.Fatal(err)
	}
	postCompact, _ := os.ReadFile(journal)
	m.Close()
	// Reconstruct the crash-window file: old pre-compaction records
	// followed by the post-compaction append.
	window := append(append([]byte{}, preCompact...), postCompact[len(manifestMagic):]...)
	if err := os.WriteFile(journal, window, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m2.Close()
	if got := m2.State(); !reflect.DeepEqual(got, specs("b")) {
		t.Fatalf("state = %+v, want just b (a loaded in snapshot, unloaded after)", got)
	}
	if got := m2.Stats().Seq; got != 3 {
		t.Fatalf("seq = %d, want 3", got)
	}
}

func TestManifestCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs("a", "b") {
		if err := m.AppendLoad(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	// A corrupt snapshot (storage rot) must not stop boot; the journal
	// alone still recovers the full set here because it was never
	// compacted.
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("FBFSSNP1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m2.Close()
	if got := m2.State(); !reflect.DeepEqual(got, specs("a", "b")) {
		t.Fatalf("state = %+v, want a,b", got)
	}
}

func TestManifestUnloadUnknownTolerated(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendUnload("never-loaded"); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendLoad(specs("a")[0]); err != nil {
		t.Fatal(err)
	}
	m2 := reopen(t, m, 100)
	defer m2.Close()
	if got := m2.State(); !reflect.DeepEqual(got, specs("a")) {
		t.Fatalf("state = %+v, want a", got)
	}
}

// Golden manifest bytes: the format as earlier builds wrote it. A test
// that fails on them means the on-disk format changed, and state dirs
// those builds left may no longer reopen.
const (
	goldenManifestLog = "464246534d414e3132000000425eb9027b22736571223a312c226f70223a226c" +
		"6f6164222c226e616d65223a2261222c2270617468223a222f672f612e637372" +
		"227d3e0000007e92b1637b22736571223a322c226f70223a226c6f6164222c22" +
		"6e616d65223a2262222c2270617468223a222f672f622e637372222c226d6d61" +
		"70223a747275657d760000003ade8a267b22736571223a332c226f70223a2269" +
		"6e646578222c226e616d65223a2261222c2270617468223a222d222c22696e64" +
		"6578223a7b2270617468223a222f672f612e6373722e696478222c226c616e64" +
		"6d61726b73223a31362c22706f6c696379223a22646567726565222c22736565" +
		"64223a337d7d"
	goldenManifestSnap = "46424653534e5031d100000019891bfb7b22736571223a332c2274616b656e22" +
		"3a22323032362d30312d30325430333a30343a30352e3030303030303030365a" +
		"222c22677261706873223a5b7b226e616d65223a2261222c2270617468223a22" +
		"2f672f612e637372222c22696e646578223a7b2270617468223a222f672f612e" +
		"6373722e696478222c226c616e646d61726b73223a31362c22706f6c69637922" +
		"3a22646567726565222c2273656564223a337d7d2c7b226e616d65223a226222" +
		"2c2270617468223a222f672f622e637372222c226d6d6170223a747275657d5d" +
		"7d"
)

// TestManifestGoldenBytes: a fixed record sequence writes manifest.log
// byte for byte as before, and the snapshot encoder writes manifest.snap
// as before for a fixed time; compaction writes exactly what the encoder
// returns for its own time.
func TestManifestGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, err := range []error{
		m.AppendLoad(GraphSpec{Name: "a", Path: "/g/a.csr"}),
		m.AppendLoad(GraphSpec{Name: "b", Path: "/g/b.csr", Mmap: true}),
		m.AppendIndex("a", IndexSpec{Path: "/g/a.csr.idx", Landmarks: 16, Policy: "degree", Seed: 3}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != goldenManifestLog {
		t.Fatalf("manifest.log changed:\n got %x\nwant %s", got, goldenManifestLog)
	}
	img, err := encodeSnapshot(manifestSnapshot{Seq: 3, Taken: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), Graphs: m.State()})
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(img) != goldenManifestSnap {
		t.Fatalf("manifest.snap encoding changed:\n got %x\nwant %s", img, goldenManifestSnap)
	}

	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	want, err := encodeSnapshot(manifestSnapshot{Seq: st.SnapshotSeq, Taken: st.SnapshotAt, Graphs: m.State()})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapshotName)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("compaction wrote %x (%v), the encoder gives %x", got, err, want)
	}
}

// TestManifestTornOffsets: manifest.log cut at every byte offset inside
// its last frame reopens with exactly the records before that frame, and
// the file truncated to them.
func TestManifestTornOffsets(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs("a", "b", "c") {
		if err := m.AppendLoad(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	full, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	last := frameEnd(t, full, 2)
	cutDir := t.TempDir()
	path := filepath.Join(cutDir, journalName)
	for cut := last + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManifest(cutDir, 100)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got, st := m.State(), m.Stats()
		m.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, specs("a", "b")) || st.TornBytes != int64(cut-last) || fi.Size() != int64(last) {
			t.Fatalf("cut at %d: state %+v, %d torn bytes, file %d bytes; want a,b, %d, %d", cut, got, st.TornBytes, fi.Size(), cut-last, last)
		}
	}
}

// TestManifestCompactionErrorInStats: a failing compaction keeps the
// append it rides on, is logged, and shows as compaction_error in /stats
// until a later compaction succeeds.
func TestManifestCompactionErrorInStats(t *testing.T) {
	stateDir := t.TempDir()
	g, err := gen.Grid2D(4, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := saveGraph(t, g, "g.csr")
	var mu sync.Mutex
	var logged []string
	s := New(Config{StateDir: stateDir, SnapshotEvery: 2, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	defer shutdown(t, s)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	// A directory where the snapshot's temp file goes fails compaction.
	blocker := filepath.Join(stateDir, snapshotName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	compactionError := func() string {
		rec := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		var st struct {
			CompactionError *string `json:"compaction_error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.CompactionError == nil {
			return ""
		}
		return *st.CompactionError
	}
	for _, name := range []string{"a", "b"} {
		if _, err := s.LoadGraph(name, path); err != nil {
			t.Fatalf("load %s with compaction failing: %v", name, err)
		}
	}
	if e := compactionError(); !strings.Contains(e, "is a directory") {
		t.Fatalf("compaction_error = %q after a failed compaction", e)
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n == 0 || !strings.Contains(logged[n-1], "compaction") {
		t.Fatalf("failed compaction not logged: %q", logged)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadGraph("c", path); err != nil {
		t.Fatal(err)
	}
	if e := compactionError(); e != "" {
		t.Fatalf("compaction_error = %q after a successful compaction", e)
	}
	if st := s.manifest.Stats(); st.SnapshotSeq != 3 || st.Records != 0 {
		t.Fatalf("retried compaction: snapshot seq %d, %d journal records; want 3, 0", st.SnapshotSeq, st.Records)
	}
}

// FuzzManifestReplay feeds arbitrary journal bytes to OpenManifest:
// whatever the bytes, opening must not panic, must recover SOME valid
// prefix, and must leave the journal in a state where appends work and
// a second open agrees with the first (replay is deterministic and
// self-healing).
func FuzzManifestReplay(f *testing.F) {
	// Seed corpus: empty, magic-only, one valid record, a torn tail,
	// bit-flipped payloads, oversized lengths.
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	valid := func() []byte {
		payload, _ := json.Marshal(manifestRecord{Seq: 1, Op: opLoad, GraphSpec: GraphSpec{Name: "g", Path: "/g.csr"}})
		return encodeFrame([]byte(manifestMagic), payload)
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-2] ^= 0x80
	f.Add(flipped)
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	f.Add([]byte("FBFSMAN1\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Skip()
		}
		m, err := OpenManifest(dir, 8)
		if err != nil {
			// Only real I/O errors may surface; none should occur on a
			// plain tempdir.
			t.Fatalf("OpenManifest: %v", err)
		}
		state1 := m.State()
		seq1 := m.Stats().Seq
		// The recovered prefix must be appendable…
		if err := m.AppendLoad(GraphSpec{Name: "after", Path: "/after.csr"}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		m.Close()
		// …and a reopen must see the same prefix plus the append.
		m2, err := OpenManifest(dir, 8)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer m2.Close()
		state2 := m2.State()
		if !m2.Contains("after") {
			t.Fatalf("append lost across reopen")
		}
		// Dropping the appended record, the prefix must match.
		var prefix []GraphSpec
		for _, s := range state2 {
			if s.Name != "after" {
				prefix = append(prefix, s)
			}
		}
		var want []GraphSpec
		for _, s := range state1 {
			if s.Name != "after" {
				want = append(want, s)
			}
		}
		if !reflect.DeepEqual(prefix, want) {
			t.Fatalf("prefix diverged: first open %+v, reopen %+v", want, prefix)
		}
		if m2.Stats().Seq < seq1 {
			t.Fatalf("seq went backwards: %d -> %d", seq1, m2.Stats().Seq)
		}
	})
}
