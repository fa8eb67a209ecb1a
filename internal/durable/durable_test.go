package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

const testMagic = "TESTLOG1"

// frame is the tests' record codec: a u32 length and the payload.
func frame(payload string) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// openRecords opens the log at path and returns it with the payloads its
// replay kept and the torn byte count.
func openRecords(t *testing.T, path string) (*Log, []string, int64) {
	t.Helper()
	var recs []string
	l, torn, err := Open(path, testMagic, func(body []byte) int {
		valid := 0
		for rest := body; len(rest) >= 4; rest = body[valid:] {
			n := int(binary.LittleEndian.Uint32(rest))
			if len(rest) < 4+n {
				break
			}
			recs = append(recs, string(rest[4:4+n]))
			valid += 4 + n
		}
		return valid
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs, torn
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

var errInjected = errors.New("injected disk fault")

// faultyFile fails the next write halfway (shortWrite) or fails the next
// fsync after a complete write (failSync).
type faultyFile struct {
	*os.File
	shortWrite, failSync bool
}

func (f *faultyFile) WriteAt(b []byte, off int64) (int, error) {
	if f.shortWrite {
		n, _ := f.File.WriteAt(b[:len(b)/2], off)
		return n, errInjected
	}
	return f.File.WriteAt(b, off)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// TestLogFailedAppendRollsBack: an append whose write stops halfway, or
// whose fsync fails after a complete write, is cut back off the file at
// once, and the two appends acknowledged after it are exactly what a
// reopen finds. The failed record is longer than both together, so
// leftovers that were not rolled back would survive them.
func TestLogFailedAppendRollsBack(t *testing.T) {
	for _, fault := range []faultyFile{{shortWrite: true}, {failSync: true}} {
		path := filepath.Join(t.TempDir(), "log")
		l, _, _ := openRecords(t, path)
		osf := l.f.(*os.File)
		ff := fault
		ff.File = osf
		l.f = &ff
		if err := l.Append(frame(string(bytes.Repeat([]byte("x"), 100)))); !errors.Is(err, errInjected) {
			t.Fatalf("%+v: failed append returned %v", fault, err)
		}
		if got := fileSize(t, path); got != int64(len(testMagic)) {
			t.Fatalf("%+v: file is %d bytes after a failed append, want the durable %d", fault, got, len(testMagic))
		}
		l.f = osf
		for _, rec := range []string{"first", "second"} {
			if err := l.Append(frame(rec)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		l, recs, torn := openRecords(t, path)
		l.Close()
		if !reflect.DeepEqual(recs, []string{"first", "second"}) || torn != 0 {
			t.Fatalf("%+v: reopen kept %q with %d torn bytes, want the two acknowledged records", fault, recs, torn)
		}
	}
}

// TestLogOpenTruncatesTornTail: every cut inside the last record leaves
// the records before it and a file truncated to them; a file without the
// magic is reset to it.
func TestLogOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openRecords(t, path)
	for _, rec := range []string{"a", "bb", "ccc"} {
		if err := l.Append(frame(rec)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(full) - len(frame("ccc"))
	for cut := last + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, torn := openRecords(t, path)
		l.Close()
		if !reflect.DeepEqual(recs, []string{"a", "bb"}) || torn != int64(cut-last) || fileSize(t, path) != int64(last) {
			t.Fatalf("cut at %d: kept %q, %d torn bytes, file %d bytes; want a, bb, %d, %d", cut, recs, torn, fileSize(t, path), cut-last, last)
		}
	}

	for _, junk := range []string{"", "TEST", "NOTMAGIC and more"} {
		if err := os.WriteFile(path, []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, torn := openRecords(t, path)
		if len(recs) != 0 || torn != int64(len(junk)) {
			t.Fatalf("%q: kept %q with %d torn bytes", junk, recs, torn)
		}
		if err := l.Append(frame("d")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); string(got) != testMagic+string(frame("d")) {
			t.Fatalf("%q: reset log holds %q", junk, got)
		}
	}
}

// TestLogReset: a reset log holds its magic alone and appends after it.
func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openRecords(t, path)
	for _, rec := range []string{"a", "b", "c"} {
		if err := l.Append(frame(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frame("d")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, recs, _ := openRecords(t, path)
	l.Close()
	if !reflect.DeepEqual(recs, []string{"d"}) || fileSize(t, path) != int64(len(testMagic)+len(frame("d"))) {
		t.Fatalf("after reset and one append: %q", recs)
	}
}

// TestCreateFaultKeepsOldFile: a fault between the temp file's fsync and
// the rename leaves the old file whole and the new one under .tmp; the
// next Create replaces the file and appends after its contents.
func TestCreateFaultKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, []byte("new"), errInjected); !errors.Is(err, errInjected) {
		t.Fatalf("Create with a fault returned %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("the fault window changed the file to %q", got)
	}
	if got, _ := os.ReadFile(path + ".tmp"); string(got) != "new" {
		t.Fatalf("the fault window left temp file %q", got)
	}
	l, err := Create(path, []byte("new"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("+rec")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, _ := os.ReadFile(path); string(got) != "new+rec" {
		t.Fatalf("created log holds %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file outlived the rename: %v", err)
	}
}
