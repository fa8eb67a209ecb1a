// The coordinator journal: a crash-recoverable record of the cluster's
// coordination state — membership (GroupAssignment), the coordination
// lease with its fencing token (Lease), and the in-flight traversal's
// per-round state (EpochState) — kept under a state directory with the
// same durability discipline as serve/manifest.go:
//
//	state.log   append-only journal of framed HA records
//	state.snap  snapshot of the current state at some compaction point
//
// Every append is written and fsync'd before the caller proceeds, and a
// record joins the state only once it is durable, so a journaled round or
// lease survives any later crash and a failed append leaves no trace. A
// crash mid-append leaves a torn tail: on open the log is scanned frame
// by frame and truncated at the first frame that is short, oversized, or
// fails its record's CRC — recovery keeps the longest valid prefix and
// NEVER refuses to boot (TornBytes reports what was dropped). After
// SnapshotEvery appends the current state is compacted into state.snap
// (tmp + fsync + rename + dir fsync, then the log is truncated); a
// corrupt snapshot is ignored, since the log retains everything since
// the last successful compaction. The file mechanics are
// internal/durable's; this file owns the codec and the fold.
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
	"log"
	"os"
	"path/filepath"
	"sync"

	"fastbfs/internal/durable"
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
	log     *durable.Log // state.log; nil once closed
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
}

// errStaleRecord marks a record the monotone fold refused: an older
// lease token or an earlier epoch state. Journal.Apply skips these
// silently; direct appends surface them.
var errStaleRecord = errors.New("coord: journal record is stale")

// errJournalClosed refuses an append after Close.
var errJournalClosed = errors.New("coord: journal closed")

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

	l, torn, err := durable.Open(filepath.Join(dir, journalLogName), journalMagic, j.replay)
	if err != nil {
		return nil, err
	}
	j.log, j.TornBytes = l, torn
	return j, nil
}

// replay folds the valid frames of body (the log past its magic) into the
// state, counting them, and returns the byte length of the valid prefix.
func (j *Journal) replay(body []byte) int {
	valid := 0
	for rest := body; len(rest) >= 4; rest = body[valid:] {
		n := le32(rest)
		if n > maxJournalFrame || uint64(n)+4 > uint64(len(rest)) {
			break
		}
		if err := j.state.fold(rest[4 : 4+n]); err != nil {
			break
		}
		valid += 4 + int(n)
		j.records++
	}
	return valid
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
		if err := j.state.fold(rec); err != nil && !errors.Is(err, errStaleRecord) {
			return err
		}
	}
	return nil
}

// fold decodes one record by its magic and merges it into st
// monotonically. Stale records (older lease token, earlier epoch state)
// return errStaleRecord; garbage returns ErrWire. Either way st is
// unchanged.
func (st *JournalState) fold(rec []byte) error {
	if len(rec) < 8 {
		return fmt.Errorf("%w: %d-byte journal record", ErrWire, len(rec))
	}
	switch string(rec[:8]) {
	case leaseMagic:
		l, err := DecodeLease(rec)
		if err != nil {
			return err
		}
		if cur := st.Lease; cur != nil && l.Token < cur.Token {
			return errStaleRecord
		}
		st.Lease = l
	case assignmentMagic:
		a, err := DecodeGroupAssignment(rec)
		if err != nil {
			return err
		}
		st.Assignment = a
	case epochMagic:
		e, err := DecodeEpochState(rec)
		if err != nil {
			return err
		}
		if cur := st.Epoch; cur != nil {
			if e.Epoch < cur.Epoch {
				return errStaleRecord
			}
			if e.Epoch == cur.Epoch && !e.Done && (cur.Done || e.Round < cur.Round) {
				return errStaleRecord
			}
		}
		st.Epoch = e
	default:
		return fmt.Errorf("%w: unknown journal record magic %q", ErrWire, rec[:8])
	}
	return nil
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

// append journals rec if it is news: it folds rec into a copy of the
// state, frames, writes and fsyncs it, and only then adopts the copy, so
// a failed write leaves the state, the mirror and the next snapshot
// exactly as a reopen would find them.
func (j *Journal) append(rec []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return errJournalClosed
	}
	next := j.state
	if err := next.fold(rec); err != nil {
		return err
	}
	if err := j.log.Append(AppendFrame(make([]byte, 0, 4+len(rec)), rec)); err != nil {
		return err
	}
	j.state = next
	j.records++
	if j.Mirror != nil {
		j.Mirror()
	}
	if j.records >= j.every {
		// The record is durable whatever compaction does: a failure is
		// logged, and the next append retries it.
		if err := j.compact(); err != nil {
			log.Printf("coord: journal compaction failed, the log keeps growing: %v", err)
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
	if err := durable.WriteFile(filepath.Join(j.dir, journalSnapName), snap); err != nil {
		return err
	}
	if err := j.log.Reset(); err != nil {
		return err
	}
	j.records = 0
	return nil
}

// Close closes the journal file; every appended record is already
// durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}
