// The coordinator journal: a crash-recoverable record of the cluster's
// coordination state — membership (GroupAssignment), the coordination
// lease with its fencing token (Lease), and the in-flight traversal's
// per-round state (EpochState) — kept under a state directory with the
// same durability discipline as serve/manifest.go:
//
//	state.log   append-only journal of framed HA records
//	state.snap  snapshot of the current state at some compaction point
//
// Every append is written and fsync'd before the caller proceeds, so a
// journaled round or lease survives any later crash. A crash mid-append
// leaves a torn tail: on open the log is scanned frame by frame and
// truncated at the first frame that is short, oversized, or fails its
// record's CRC — recovery keeps the longest valid prefix and NEVER
// refuses to boot (TornBytes reports what was dropped). After
// SnapshotEvery appends the current state is compacted into state.snap
// (tmp + fsync + rename + dir fsync, then the log is truncated); a
// corrupt snapshot is ignored, since the log retains everything since
// the last successful compaction.
//
// Records fold into the state monotonically — lease tokens never
// regress, epoch state only advances — so the same code path absorbs
// sequential replay, duplicated mirror pushes from an active
// coordinator, and out-of-order delivery.
package coord

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

const (
	journalMagic   = "FBFSCJL1"
	coordSnapMagic = "FBFSCJS1"

	journalLogName  = "state.log"
	journalSnapName = "state.snap"

	// maxJournalFrame bounds one framed record; an EpochState over the
	// largest legal graph fits well inside it.
	maxJournalFrame = 1 << 30

	// DefaultJournalSnapshotEvery is the compaction threshold when
	// OpenJournal is given zero.
	DefaultJournalSnapshotEvery = 256
)

// JournalState is the coordination state a journal has accumulated.
// The record pointers are shared, not copied — treat them as immutable.
type JournalState struct {
	Lease      *Lease
	Assignment *GroupAssignment
	Epoch      *EpochState
}

// Journal is the coordinator's durable state log. All methods are safe
// for concurrent use.
type Journal struct {
	mu      sync.Mutex
	dir     string
	f       *os.File
	every   int
	records int
	state   JournalState

	// TornBytes is how many bytes of torn tail were truncated at open
	// (0 = the log was clean). SnapshotCorrupt reports that state.snap
	// existed but failed validation and was ignored.
	TornBytes       int64
	SnapshotCorrupt bool

	// Mirror, when non-nil, is called after every successful append — the
	// active coordinator's hook for pushing its state to its standby. It
	// runs under the journal lock and must not block.
	Mirror func()

	countedRecords int // valid records folded during replayLog
}

// errStaleRecord marks a record the monotone fold refused: an older
// lease token or an earlier epoch state. Journal.Apply skips these
// silently; direct appends surface them.
var errStaleRecord = errors.New("coord: journal record is stale")

// OpenJournal opens (creating if needed) the coordinator journal in
// dir, replaying state.snap and then state.log. snapshotEvery <= 0 gets
// DefaultJournalSnapshotEvery.
func OpenJournal(dir string, snapshotEvery int) (*Journal, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultJournalSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, every: snapshotEvery}

	// Snapshot first: the log holds only records since its compaction.
	if snap, err := os.ReadFile(filepath.Join(dir, journalSnapName)); err == nil {
		if err := j.applyFrames(snap, coordSnapMagic); err != nil {
			j.SnapshotCorrupt = true
			j.state = JournalState{} // half-applied snapshot is worthless
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	path := filepath.Join(dir, journalLogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if len(raw) == 0 {
		if err := j.reset(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	if len(raw) < len(journalMagic) || string(raw[:len(journalMagic)]) != journalMagic {
		// Not our log at all: keep the snapshot's state, start the log
		// over. Refusing to boot would make one bad byte fatal.
		j.TornBytes = int64(len(raw))
		if err := j.reset(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	consumed := j.replayLog(raw[len(journalMagic):]) + int64(len(journalMagic))
	if consumed < int64(len(raw)) {
		j.TornBytes = int64(len(raw)) - consumed
		if err := f.Truncate(consumed); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	j.records = j.countedRecords
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replayLog folds valid frames from b (the log body past the magic)
// into the state, returning the byte count of the valid prefix.
func (j *Journal) replayLog(b []byte) int64 {
	var consumed int64
	j.countedRecords = 0
	for len(b) >= 4 {
		n := le32(b)
		if n > maxJournalFrame || uint64(n)+4 > uint64(len(b)) {
			break
		}
		rec := b[4 : 4+n]
		if _, err := j.fold(rec); err != nil {
			break
		}
		consumed += int64(4 + n)
		j.countedRecords++
		b = b[4+n:]
	}
	return consumed
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// applyFrames validates a magic-prefixed concatenation of frames and
// folds every record in; any failure poisons the whole buffer.
func (j *Journal) applyFrames(b []byte, magic string) error {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad journal magic", ErrWire)
	}
	frames, err := SplitFrames(b[len(magic):])
	if err != nil {
		return err
	}
	for _, rec := range frames {
		if _, err := j.fold(rec); err != nil && !errors.Is(err, errStaleRecord) {
			return err
		}
	}
	return nil
}

// fold decodes one record by its magic and merges it into the state
// monotonically. Stale records (older lease token, earlier epoch state)
// return errStaleRecord; garbage returns ErrWire.
func (j *Journal) fold(rec []byte) (any, error) {
	if len(rec) < 8 {
		return nil, fmt.Errorf("%w: %d-byte journal record", ErrWire, len(rec))
	}
	switch string(rec[:8]) {
	case leaseMagic:
		l, err := DecodeLease(rec)
		if err != nil {
			return nil, err
		}
		if cur := j.state.Lease; cur != nil && l.Token < cur.Token {
			return nil, errStaleRecord
		}
		j.state.Lease = l
		return l, nil
	case assignmentMagic:
		a, err := DecodeGroupAssignment(rec)
		if err != nil {
			return nil, err
		}
		j.state.Assignment = a
		return a, nil
	case epochMagic:
		e, err := DecodeEpochState(rec)
		if err != nil {
			return nil, err
		}
		if cur := j.state.Epoch; cur != nil {
			if e.Epoch < cur.Epoch {
				return nil, errStaleRecord
			}
			if e.Epoch == cur.Epoch && !e.Done && (cur.Done || e.Round < cur.Round) {
				return nil, errStaleRecord
			}
		}
		j.state.Epoch = e
		return e, nil
	default:
		return nil, fmt.Errorf("%w: unknown journal record magic %q", ErrWire, rec[:8])
	}
}

// reset rewrites the log as empty (magic only).
func (j *Journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.WriteAt([]byte(journalMagic), 0); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	_, err := j.f.Seek(0, 2)
	j.records = 0
	return err
}

// State returns the journal's current accumulated state.
func (j *Journal) State() JournalState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Dir returns the journal's state directory.
func (j *Journal) Dir() string { return j.dir }

// AppendLease durably records l. Stale tokens are refused.
func (j *Journal) AppendLease(l *Lease) error { return j.append(l.Encode()) }

// AppendAssignment durably records a.
func (j *Journal) AppendAssignment(a *GroupAssignment) error { return j.append(a.Encode()) }

// AppendEpoch durably records e. Regressions within an epoch are refused.
func (j *Journal) AppendEpoch(e *EpochState) error { return j.append(e.Encode()) }

// Apply validates an already-encoded record (as received from a mirror
// push or a state poll), folds it in monotonically and journals it.
// Stale records are skipped without error (applied = false) so
// duplicated and reordered delivery never bloats the log.
func (j *Journal) Apply(rec []byte) (applied bool, err error) {
	err = j.append(rec)
	if errors.Is(err, errStaleRecord) {
		return false, nil
	}
	return err == nil, err
}

// append folds rec into the state and, if it was news, frames, writes
// and fsyncs it before returning.
func (j *Journal) append(rec []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.fold(rec); err != nil {
		return err
	}
	frame := AppendFrame(make([]byte, 0, 4+len(rec)), rec)
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.records++
	if j.Mirror != nil {
		j.Mirror()
	}
	if j.records >= j.every {
		if err := j.compact(); err != nil {
			return fmt.Errorf("coord: journal compaction: %w", err)
		}
	}
	return nil
}

// compact writes the current state to state.snap (atomically, durably)
// and then truncates the log. A crash between the rename and the
// truncate merely replays the log's records onto the snapshot — the
// monotone fold makes that a no-op.
func (j *Journal) compact() error {
	snap := []byte(coordSnapMagic)
	if j.state.Lease != nil {
		snap = AppendFrame(snap, j.state.Lease.Encode())
	}
	if j.state.Assignment != nil {
		snap = AppendFrame(snap, j.state.Assignment.Encode())
	}
	if j.state.Epoch != nil {
		snap = AppendFrame(snap, j.state.Epoch.Encode())
	}
	tmp := filepath.Join(j.dir, journalSnapName+".tmp")
	if err := writeFileSync(tmp, snap); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, journalSnapName)); err != nil {
		return err
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	return j.reset()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
