package coord

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// --- HA wire records -------------------------------------------------

func TestLeaseRoundTrip(t *testing.T) {
	l := &Lease{Token: 42, Expires: 1_700_000_000_123_456_789, Holder: "http://coord-a:9090"}
	enc := l.Encode()
	got, err := DecodeLease(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Token != l.Token || got.Expires != l.Expires || got.Holder != l.Holder {
		t.Fatalf("round trip got %+v, want %+v", got, l)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	// A flipped byte must fail the CRC, not decode to garbage.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeLease(bad); !errors.Is(err, ErrWire) {
		t.Fatalf("corrupt lease decoded: err = %v", err)
	}
}

func TestGroupAssignmentRoundTrip(t *testing.T) {
	a := &GroupAssignment{Groups: 2, Replicas: 2, URLs: []string{"http://s0", "http://s1", "http://s2", "http://s3"}}
	enc := a.Encode()
	got, err := DecodeGroupAssignment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Groups != 2 || got.Replicas != 2 || len(got.URLs) != 4 {
		t.Fatalf("round trip got %+v", got)
	}
	if got.URL(1, 0) != "http://s2" || got.URL(0, 1) != "http://s1" {
		t.Fatalf("group-major URL lookup broken: %q, %q", got.URL(1, 0), got.URL(0, 1))
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	// Groups*Replicas must equal the member count.
	bad := &GroupAssignment{Groups: 3, Replicas: 2, URLs: []string{"a", "b", "c", "d"}}
	if _, err := DecodeGroupAssignment(bad.Encode()); !errors.Is(err, ErrWire) {
		t.Fatalf("inconsistent assignment decoded: err = %v", err)
	}
}

// testEpochState builds a valid in-flight EpochState over two groups.
func testEpochState() *EpochState {
	f0 := NewFrontier(7, 3, 0, 0, 100)
	f0.Set(5)
	f1 := NewFrontier(7, 3, 1, 100, 200)
	return &EpochState{
		Epoch: 7, Fence: 2, Source: 5, Round: 3,
		Cand: [][]byte{f0.Encode(), f1.Encode()},
	}
}

func TestEpochStateRoundTrip(t *testing.T) {
	e := testEpochState()
	enc := e.Encode()
	got, err := DecodeEpochState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.Fence != 2 || got.Source != 5 || got.Round != 3 || got.Done || len(got.Cand) != 2 {
		t.Fatalf("round trip got %+v", got)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}

	done := &EpochState{Epoch: 9, Fence: 2, Source: 5, Round: 12, Done: true}
	got, err = DecodeEpochState(done.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Round != 12 {
		t.Fatalf("done round trip got %+v", got)
	}

	// A "done" record carrying candidates is corruption, not state.
	bad := &EpochState{Epoch: 9, Round: 1, Done: true, Cand: [][]byte{NewFrontier(9, 1, 0, 0, 10).Encode()}}
	if _, err := DecodeEpochState(bad.Encode()); !errors.Is(err, ErrWire) {
		t.Fatalf("done state with candidates decoded: err = %v", err)
	}
	// A candidate tagged for the wrong round cannot be replayed.
	wrong := testEpochState()
	wrong.Cand[1] = NewFrontier(7, 4, 1, 100, 200).Encode()
	if _, err := DecodeEpochState(wrong.Encode()); !errors.Is(err, ErrWire) {
		t.Fatalf("mis-tagged candidate decoded: err = %v", err)
	}
}

func TestSplitFramesRoundTrip(t *testing.T) {
	recs := [][]byte{(&Lease{Token: 1, Holder: "h"}).Encode(), {}, testEpochState().Encode()}
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	got, err := SplitFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("split %d frames, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if _, err := SplitFrames(buf[:len(buf)-1]); !errors.Is(err, ErrWire) {
		t.Fatalf("truncated frame buffer split: err = %v", err)
	}
	if _, err := SplitFrames([]byte{0xFF, 0xFF}); !errors.Is(err, ErrWire) {
		t.Fatalf("dangling header split: err = %v", err)
	}
}

// The HA decoders share the FuzzDecodeFrontier contract: never panic,
// reject anything non-canonical with ErrWire, and re-encode accepted
// payloads byte-for-byte.

func FuzzDecodeLease(f *testing.F) {
	f.Add((&Lease{Token: 1, Expires: 123, Holder: "http://a"}).Encode())
	f.Add((&Lease{}).Encode())
	f.Add([]byte{})
	f.Add([]byte(leaseMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLease(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection not tagged ErrWire: %v", err)
			}
			return
		}
		if !bytes.Equal(l.Encode(), data) {
			t.Fatalf("accepted %d bytes but re-encoding differs", len(data))
		}
	})
}

func FuzzDecodeGroupAssignment(f *testing.F) {
	f.Add((&GroupAssignment{Groups: 2, Replicas: 2, URLs: []string{"a", "b", "c", "d"}}).Encode())
	f.Add((&GroupAssignment{Groups: 1, Replicas: 1, URLs: []string{""}}).Encode())
	f.Add([]byte{})
	f.Add([]byte(assignmentMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeGroupAssignment(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection not tagged ErrWire: %v", err)
			}
			return
		}
		if !bytes.Equal(a.Encode(), data) {
			t.Fatalf("accepted %d bytes but re-encoding differs", len(data))
		}
	})
}

func FuzzDecodeEpochState(f *testing.F) {
	f.Add(testEpochState().Encode())
	f.Add((&EpochState{Epoch: 9, Round: 12, Done: true}).Encode())
	f.Add((&EpochState{}).Encode())
	f.Add([]byte{})
	f.Add([]byte(epochMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEpochState(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("rejection not tagged ErrWire: %v", err)
			}
			return
		}
		if !bytes.Equal(e.Encode(), data) {
			t.Fatalf("accepted %d bytes but re-encoding differs", len(data))
		}
	})
}

// --- Coordinator journal ---------------------------------------------

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	lease := &Lease{Token: 3, Expires: 99, Holder: "http://a"}
	asg := &GroupAssignment{Groups: 2, Replicas: 1, URLs: []string{"http://s0", "http://s1"}}
	epoch := testEpochState()
	if err := j.AppendLease(lease); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAssignment(asg); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEpoch(epoch); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.TornBytes != 0 || j2.SnapshotCorrupt {
		t.Fatalf("clean journal reopened with TornBytes=%d SnapshotCorrupt=%v", j2.TornBytes, j2.SnapshotCorrupt)
	}
	st := j2.State()
	if st.Lease == nil || !bytes.Equal(st.Lease.Encode(), lease.Encode()) {
		t.Fatalf("lease lost across reopen: %+v", st.Lease)
	}
	if st.Assignment == nil || !bytes.Equal(st.Assignment.Encode(), asg.Encode()) {
		t.Fatalf("assignment lost across reopen: %+v", st.Assignment)
	}
	if st.Epoch == nil || !bytes.Equal(st.Epoch.Encode(), epoch.Encode()) {
		t.Fatalf("epoch state lost across reopen: %+v", st.Epoch)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	lease := &Lease{Token: 5, Holder: "http://a"}
	if err := j.AppendLease(lease); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a framed record whose bytes are junk.
	logPath := filepath.Join(dir, "state.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendFrame(nil, []byte("FBFSLSE1 but then garbage"))
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatalf("torn tail must never refuse boot: %v", err)
	}
	if j2.TornBytes != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, torn tail was %d bytes", j2.TornBytes, len(torn))
	}
	st := j2.State()
	if st.Lease == nil || st.Lease.Token != 5 {
		t.Fatalf("valid prefix lost: %+v", st.Lease)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn tail was truncated away: a third open is clean.
	j3, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.TornBytes != 0 {
		t.Fatalf("tail not truncated: third open reports %d torn bytes", j3.TornBytes)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tok := uint64(1); tok <= 3; tok++ {
		if err := j.AppendLease(&Lease{Token: tok, Holder: "http://a"}); err != nil {
			t.Fatal(err)
		}
	}
	// The third append crossed the threshold: state lives in state.snap
	// and the log is reset to its magic.
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "state.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len("FBFSCJL1")) {
		t.Fatalf("log is %d bytes after compaction, want magic only", fi.Size())
	}
	if err := j.AppendLease(&Lease{Token: 4, Holder: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.State(); st.Lease == nil || st.Lease.Token != 4 {
		t.Fatalf("state after snapshot+log replay: %+v", st.Lease)
	}
}

func TestJournalCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two appends force a compaction (snapshot holds token 2), then one
	// more lands in the fresh log.
	for tok := uint64(1); tok <= 3; tok++ {
		if err := j.AppendLease(&Lease{Token: tok, Holder: "http://a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, "state.snap")
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)-3] ^= 0xA5
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatalf("corrupt snapshot must never refuse boot: %v", err)
	}
	defer j2.Close()
	if !j2.SnapshotCorrupt {
		t.Fatal("SnapshotCorrupt not reported")
	}
	// The log retains everything since the last compaction.
	if st := j2.State(); st.Lease == nil || st.Lease.Token != 3 {
		t.Fatalf("log-only recovery got %+v", st.Lease)
	}
}

func TestJournalApplyStaleAndGarbage(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	fresh := (&Lease{Token: 7, Holder: "http://a"}).Encode()
	if applied, err := j.Apply(fresh); err != nil || !applied {
		t.Fatalf("fresh record: applied=%v err=%v", applied, err)
	}
	// A mirror push that regresses the token is skipped without error —
	// duplicated and reordered delivery must not bloat the log or fail.
	stale := (&Lease{Token: 6, Holder: "http://b"}).Encode()
	if applied, err := j.Apply(stale); err != nil || applied {
		t.Fatalf("stale record: applied=%v err=%v", applied, err)
	}
	if st := j.State(); st.Lease.Token != 7 {
		t.Fatalf("stale record folded in: token %d", st.Lease.Token)
	}
	if _, err := j.Apply([]byte("not a record")); !errors.Is(err, ErrWire) {
		t.Fatalf("garbage applied: err = %v", err)
	}

	// Epoch state regressions within an epoch are likewise skipped.
	e := testEpochState()
	if applied, err := j.Apply(e.Encode()); err != nil || !applied {
		t.Fatalf("epoch record: applied=%v err=%v", applied, err)
	}
	earlier := testEpochState()
	earlier.Round = 2
	f0 := NewFrontier(7, 2, 0, 0, 100)
	f1 := NewFrontier(7, 2, 1, 100, 200)
	earlier.Cand = [][]byte{f0.Encode(), f1.Encode()}
	if applied, err := j.Apply(earlier.Encode()); err != nil || applied {
		t.Fatalf("regressed epoch round: applied=%v err=%v", applied, err)
	}
}

// TestJournalFailedAppendNotFolded: a record whose write fails joins
// neither the state nor a mirror push, and a reopen agrees: the journal
// acknowledges only what it can recover.
func TestJournalFailedAppendNotFolded(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendLease(&Lease{Token: 1, Holder: "http://a"}); err != nil {
		t.Fatal(err)
	}
	mirrored := 0
	j.Mirror = func() { mirrored++ }
	j.log.Close() // every later write fails
	if err := j.AppendLease(&Lease{Token: 2, Holder: "http://a"}); err == nil {
		t.Fatal("append to a closed log file succeeded")
	}
	if st := j.State(); st.Lease.Token != 1 || mirrored != 0 {
		t.Fatalf("failed append left token %d in the state and pushed %d mirror updates", st.Lease.Token, mirrored)
	}
	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.State(); st.Lease.Token != 1 {
		t.Fatalf("reopen found token %d", st.Lease.Token)
	}
}

// TestJournalCompactionFailureKeepsRecord: a compaction that fails does not
// fail the append whose record is already durable; the next append past
// the threshold retries it.
func TestJournalCompactionFailureKeepsRecord(t *testing.T) {
	dir := t.TempDir()
	// A directory where the snapshot's temp file goes fails every
	// compaction until it is removed.
	blocker := filepath.Join(dir, journalSnapName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for tok := uint64(1); tok <= 3; tok++ {
		if err := j.AppendLease(&Lease{Token: tok, Holder: "http://a"}); err != nil {
			t.Fatalf("append of token %d with compaction failing: %v", tok, err)
		}
	}
	if st := j.State(); st.Lease.Token != 3 {
		t.Fatalf("state holds token %d, want 3", st.Lease.Token)
	}
	if _, err := os.Stat(filepath.Join(dir, journalSnapName)); err == nil {
		t.Fatal("a snapshot appeared while compaction was failing")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendLease(&Lease{Token: 4, Holder: "http://a"}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(journalMagic)) {
		t.Fatalf("log is %d bytes after the retried compaction, want magic only", fi.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.State(); st.Lease.Token != 4 {
		t.Fatalf("reopen found token %d, want 4", st.Lease.Token)
	}
}

// --- Replica groups: failover and fencing ----------------------------

// failFast shortens tc's recovery budget, so a killed replica is
// declared dead for the epoch quickly.
func (tc *testCluster) failFast() *testCluster {
	tc.cfg.RecoveryBudget = 400 * time.Millisecond
	tc.cfg.MaxAttempts = 3
	return tc
}

// TestReplicaFailoverExact: with R=2, SIGKILLing one replica mid-epoch
// (it processes a round, drops the reply, and never comes back) costs
// exactness nothing — the sibling replica holds identical state, the
// round fails over, and the traversal finishes the same epoch with
// depths matching serial BFS.
func TestReplicaFailoverExact(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 1)
	tc := newTestCluster(t, g, 2, 2, nil, nil).failFast()
	// Group 0's primary replica dies at its 2nd expand, forever.
	tc.proxies[0].script(2, -1, nil)
	c := tc.open(t)
	res, err := c.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	if res.Failovers == 0 {
		t.Fatal("replica died mid-epoch but no failover was recorded")
	}
	if res.EpochRestarts != 0 {
		t.Fatalf("failover escalated to %d epoch restarts; the sibling replica should have absorbed it", res.EpochRestarts)
	}
}

// TestReplicaGroupDeathDegrades: replication only protects a group while
// at least one replica survives. Killing every replica of one group
// falls back to the degraded partial-result path: HTTP 206 territory,
// with the dead group listed.
func TestReplicaGroupDeathDegrades(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, g, 2, 2, nil, nil).failFast()
	// Both replicas of group 1 die at their first expand.
	tc.proxies[2].script(1, -1, nil)
	tc.proxies[3].script(1, -1, nil)
	c := tc.open(t)
	res, err := c.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatal("whole-group death did not degrade the result")
	}
	if len(res.DeadShards) != 1 || res.DeadShards[0] != 1 {
		t.Fatalf("DeadShards = %v, want [1]", res.DeadShards)
	}
	if res.Depth[1] != 0 {
		t.Fatalf("source depth %d in degraded result", res.Depth[1])
	}
}

// TestFencingRejectsStaleCoordinator: a coordinator holding an older
// fencing token gets ErrFenced from every shard once a newer one has
// been admitted — and the admitted token survives a shard restart via
// the round checkpoint.
func TestFencingRejectsStaleCoordinator(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 1)
	dirs := []string{t.TempDir(), t.TempDir()}
	tc := newTestCluster(t, g, 2, 1, dirs, nil)

	oldCfg := tc.cfg
	oldCfg.Fence = 5
	older, err := Open(context.Background(), oldCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := older.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)

	newCfg := tc.cfg
	newCfg.Fence = 7
	newer, err := Open(context.Background(), newCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = newer.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)

	// The deposed coordinator's rounds are now rejected, not half-applied.
	if _, err := older.Run(context.Background(), 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale coordinator ran: err = %v", err)
	}

	// The fence rides the checkpoint: a shard restarted from disk still
	// rejects the stale token.
	s, err := NewShard(g, 0, 2, dirs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Fence != 7 {
		t.Fatalf("restarted shard restored fence %d, want 7", st.Fence)
	}
	if _, err := s.Depths(res.Epoch, 5); !errors.Is(err, ErrFenced) {
		t.Fatalf("restarted shard served a stale token: err = %v", err)
	}
}

// --- Standby resume ---------------------------------------------------

// TestStandbyResume: a journaled coordinator is killed mid-epoch; a
// successor opened over the same journal (with the next fencing token)
// resumes the in-flight epoch from the journaled round and finishes it
// exactly — no epoch restart, and no shard ever re-ran round 0.
func TestStandbyResume(t *testing.T) {
	g, err := gen.Grid2D(30, 20, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	// A small per-expand delay keeps rounds slow enough to interrupt the
	// run deterministically mid-epoch (the grid has ~48 rounds).
	inj := &faultinject.Plan{Seed: 11, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteShardExpand: {DelayProb: 1, MaxDelay: 3 * time.Millisecond},
	}}
	tc := newTestCluster(t, g, 2, 1, nil, inj).failFast()
	stateDir := t.TempDir()

	jA, err := OpenJournal(stateDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := tc.cfg
	cfgA.Fence = 1
	cfgA.Journal = jA
	coordA, err := Open(context.Background(), cfgA)
	if err != nil {
		t.Fatal(err)
	}

	runCtx, kill := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		_, err := coordA.Run(runCtx, 0)
		runDone <- err
	}()
	// Kill the coordinator once the journal proves the epoch is in
	// flight past round 2.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := jA.State(); st.Epoch != nil && !st.Epoch.Done && st.Epoch.Round >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never recorded round 3")
		}
		time.Sleep(time.Millisecond)
	}
	kill()
	if err := <-runDone; err == nil {
		t.Fatal("interrupted run reported success")
	}
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}

	// The successor: same journal directory, next fencing token.
	jB, err := OpenJournal(stateDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jB.Close()
	interrupted := jB.State().Epoch
	if interrupted == nil || interrupted.Done {
		t.Fatalf("journal lost the in-flight epoch: %+v", interrupted)
	}
	cfgB := tc.cfg
	cfgB.Fence = 2
	cfgB.Journal = jB
	coordB, err := Open(context.Background(), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coordB.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("Resume found nothing to do despite an unfinished journaled epoch")
	}
	assertExactDepths(t, res, want)
	if res.Epoch != interrupted.Epoch {
		t.Fatalf("resume ran epoch %d, journal held %d", res.Epoch, interrupted.Epoch)
	}
	if res.EpochRestarts != 0 {
		t.Fatalf("resume restarted the epoch %d times; checkpointed rounds should replay", res.EpochRestarts)
	}
	// Each shard saw exactly one round 0 across both coordinators: the
	// resume replayed cached rounds instead of resetting the epoch.
	for i, s := range tc.shards {
		if n := s.Resets(); n != 1 {
			t.Fatalf("shard %d reset its epoch state %d times, want 1", i, n)
		}
	}
	if st := jB.State(); st.Epoch == nil || !st.Epoch.Done {
		t.Fatal("completed epoch not marked done in the journal")
	}

	// A second Resume finds nothing in flight.
	if res, err := coordB.Resume(context.Background()); err != nil || res != nil {
		t.Fatalf("Resume after completion: res=%v err=%v", res, err)
	}
}

// TestReplicaClusterDrainsGoroutines: a full replica-cluster run with a
// failover leaves no goroutines behind once the servers shut down.
func TestReplicaClusterDrainsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 1)
	tc := newTestCluster(t, g, 2, 2, nil, nil).failFast()
	client := &http.Client{}
	tc.cfg.Client = client
	tc.proxies[1].script(2, -1, nil)
	c := tc.open(t)
	res, err := c.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertExactDepths(t, res, want)
	for _, srv := range tc.servers {
		srv.Close()
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
