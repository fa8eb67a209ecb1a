package coord

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Golden bytes and crash-cut tables for the coordinator journal and the
// shard round log. The literals are the formats as earlier builds wrote
// them: a test that fails here means the on-disk format changed, and
// state dirs those builds left may no longer reopen.
const (
	goldenJournalLog = "46424653434a4c3128000000464246534c534531010000000000000064000000" +
		"0000000008000000687474703a2f2f61f0060d4d320000004642465347525031" +
		"02000000010000000200000009000000687474703a2f2f733009000000687474" +
		"703a2f2f73319cb5e338910000004642465345504f3107000000000000000100" +
		"00000000000005000000000000000002000000300000004642465346524e3107" +
		"0000000000000000000000000000000000000028000000020000002000000000" +
		"000000658ff347300000004642465346524e3107000000000000000000000001" +
		"0000002800000050000000020000000000000000000000fb22f214bbec43bf"
	goldenJournalSnap = "46424653434a533128000000464246534c5345310200000000000000c8000000" +
		"0000000008000000687474703a2f2f611b2ce8ed320000004642465347525031" +
		"02000000010000000200000009000000687474703a2f2f733009000000687474" +
		"703a2f2f73319cb5e338910000004642465345504f3107000000000000000100" +
		"00000000000005000000000000000002000000300000004642465346524e3107" +
		"0000000000000000000000000000000000000028000000020000002000000000" +
		"000000658ff347300000004642465346524e3107000000000000000000000001" +
		"0000002800000050000000020000000000000000000000fb22f214bbec43bf"
	goldenJournalLogAfterSnap = "46424653434a4c31290000004642465345504f31070000000000000002000000" +
		"0000000005000000010000000100000000887fdb7f"
	goldenRoundLog = "46424653524c4731010000000000000000000000240000000200000000000000" +
		"8569b20e000000000200000000000000010000000000000070bedf4401000000" +
		"02000000000000000200000001000000060000005618d0ed0200000002000000" +
		"000000000300000002000000070000000c00000010ddc0df"
	goldenCheckpoint = "46424653434b5032010000000000000002000000000000000300000000000000" +
		"00000000040000000000000001000000ffffffff010000000400000072657370" +
		"88890f0d"
)

// checkFile fails unless the file at path holds exactly the hex bytes.
func checkFile(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n got %x\nwant %x", filepath.Base(path), got, want)
	}
}

// TestJournalGoldenBytes: a fixed record sequence writes state.log and,
// past the compaction threshold, state.snap byte for byte as before.
func TestJournalGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f0 := NewFrontier(7, 0, 0, 0, 40)
	f0.Set(5)
	f1 := NewFrontier(7, 0, 1, 40, 80)
	for _, err := range []error{
		j.AppendLease(&Lease{Token: 1, Expires: 100, Holder: "http://a"}),
		j.AppendAssignment(&GroupAssignment{Groups: 2, Replicas: 1, URLs: []string{"http://s0", "http://s1"}}),
		j.AppendEpoch(&EpochState{Epoch: 7, Fence: 1, Source: 5, Cand: [][]byte{f0.Encode(), f1.Encode()}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkFile(t, filepath.Join(dir, journalLogName), goldenJournalLog)
	// The fourth append compacts; the fifth lands in the emptied log.
	if err := j.AppendLease(&Lease{Token: 2, Expires: 200, Holder: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEpoch(&EpochState{Epoch: 7, Fence: 2, Source: 5, Round: 1, Done: true}); err != nil {
		t.Fatal(err)
	}
	checkFile(t, filepath.Join(dir, journalSnapName), goldenJournalSnap)
	checkFile(t, filepath.Join(dir, journalLogName), goldenJournalLogAfterSnap)
}

// TestRoundLogGoldenBytes: three rounds of the grid shard write the round
// log, and SaveCheckpoint its snapshot, byte for byte as before.
func TestRoundLogGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	logShard(t, dir, nil, 1, 2, 3)
	checkFile(t, checkpointPath(dir), goldenRoundLog)

	dir = t.TempDir()
	if err := SaveCheckpoint(dir, &Checkpoint{Epoch: 1, Round: 2, Fence: 3, Lo: 0, Hi: 4, Depth: []int32{0, 1, -1, 1}, Resp: []byte("resp")}); err != nil {
		t.Fatal(err)
	}
	checkFile(t, checkpointPath(dir), goldenCheckpoint)
}

// journalRecords returns the encoding of each record st holds, nil for
// an absent one.
func journalRecords(st JournalState) [3][]byte {
	var recs [3][]byte
	if st.Lease != nil {
		recs[0] = st.Lease.Encode()
	}
	if st.Assignment != nil {
		recs[1] = st.Assignment.Encode()
	}
	if st.Epoch != nil {
		recs[2] = st.Epoch.Encode()
	}
	return recs
}

// TestJournalTornOffsets: state.log cut at every byte offset inside its
// last frame reopens with exactly the records before that frame, and the
// file truncated to them.
func TestJournalTornOffsets(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	asg := &GroupAssignment{Groups: 1, Replicas: 1, URLs: []string{"http://s0"}}
	kept := JournalState{Lease: &Lease{Token: 1, Holder: "http://a"}, Assignment: asg}
	lastRec := (&Lease{Token: 2, Holder: "http://a"}).Encode()
	for _, rec := range [][]byte{kept.Lease.Encode(), asg.Encode(), lastRec} {
		if _, err := j.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(dir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	last := len(full) - 4 - len(lastRec)
	cutDir := t.TempDir()
	path := filepath.Join(cutDir, journalLogName)
	for cut := last + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(cutDir, 0)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		j.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(journalRecords(j.State()), journalRecords(kept)) || j.TornBytes != int64(cut-last) || fi.Size() != int64(last) {
			t.Fatalf("cut at %d: %d torn bytes, file %d bytes, want %d and %d with the first two records", cut, j.TornBytes, fi.Size(), cut-last, last)
		}
	}
}

// TestRoundLogTornOffsets: a round log cut at every byte offset inside its
// last record restores the shard at the round before it, and the file is
// truncated to the records before it.
func TestRoundLogTornOffsets(t *testing.T) {
	dir := t.TempDir()
	logShard(t, dir, nil, 1, 2, 3)
	three, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	logShard(t, dir, nil, 1, 2, 4)
	full, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	last := len(three)
	if !bytes.Equal(full[:last], three) {
		t.Fatal("four rounds' log does not extend three rounds' log")
	}
	for cut := last + 1; cut < len(full); cut++ {
		if err := os.WriteFile(checkpointPath(dir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if st := gridShard(t, dir, nil).Status(); st.Epoch != 1 || st.Round != 3 || st.Fence != 2 {
			t.Fatalf("cut at %d: restored epoch %d round %d fence %d, want 1, 3, 2", cut, st.Epoch, st.Round, st.Fence)
		}
		fi, err := os.Stat(checkpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(last) {
			t.Fatalf("cut at %d: file %d bytes after restore, want %d", cut, fi.Size(), last)
		}
	}
}

// FuzzJournalReplay: whatever state.log holds, OpenJournal neither panics
// nor refuses to boot, and reopening what it kept gives the same state
// with no torn bytes.
func FuzzJournalReplay(f *testing.F) {
	valid, _ := hex.DecodeString(goldenJournalLog)
	f.Add([]byte{})
	f.Add([]byte(journalMagic))
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid), 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalLogName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatalf("OpenJournal refused: %v", err)
		}
		want := journalRecords(j.State())
		j.Close()
		j, err = OpenJournal(dir, 0)
		if err != nil {
			t.Fatalf("reopen refused: %v", err)
		}
		defer j.Close()
		if j.TornBytes != 0 || !reflect.DeepEqual(journalRecords(j.State()), want) {
			t.Fatalf("reopen: %d torn bytes, state changed: %v", j.TornBytes, j.State())
		}
	})
}
