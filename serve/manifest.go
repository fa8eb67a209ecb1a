// Durable control plane: a crash-recoverable record of which graphs the
// service is meant to be serving, kept under a state directory so that a
// restart — graceful or SIGKILL — restores the exact acknowledged
// serving table instead of an empty one.
//
// Two files live in the state dir:
//
//	manifest.log   append-only journal of admin mutations
//	manifest.snap  snapshot of the full graph set at some journal seq
//
// The journal starts with an 8-byte magic and then holds framed records:
//
//	length  uint32  payload bytes (bounded by maxManifestRecord)
//	crc     uint32  CRC32 (IEEE) of the payload
//	payload []byte  JSON manifestRecord {seq, op, name, path, mmap}
//
// Every append is written and fsync'd before the mutation is
// acknowledged, so an acked load/unload survives any later crash. A
// crash mid-append leaves a torn tail: on open the journal is scanned
// record by record and truncated at the first frame that is short,
// oversized, CRC-mismatched, non-JSON or out of sequence — recovery
// keeps the longest valid prefix and NEVER refuses to boot.
//
// Snapshot compaction: after SnapshotEvery appended records the full
// graph set is written to manifest.snap.tmp, fsync'd, renamed over
// manifest.snap (atomic on POSIX), the directory fsync'd, and only then
// is the journal truncated back to its magic. A crash between the
// rename and the truncate is harmless: journal records with seq <= the
// snapshot's seq are skipped during replay.
//
// The file mechanics (append and rollback, torn-tail truncation, the
// atomic snapshot replace) are internal/durable's; this file owns the
// record codec, the replay rules and the degrade/probe policy.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fastbfs/internal/durable"
	"fastbfs/internal/faultinject"
	"fastbfs/tune"
)

const (
	manifestMagic = "FBFSMAN1"
	snapshotMagic = "FBFSSNP1"

	journalName  = "manifest.log"
	snapshotName = "manifest.snap"

	// maxManifestRecord bounds one framed payload; records are small
	// JSON objects, so anything larger is a corrupt length field.
	maxManifestRecord = 1 << 20

	// DefaultSnapshotEvery is the compaction threshold when
	// Config.SnapshotEvery is zero.
	DefaultSnapshotEvery = 64
)

// Manifest operations, as recorded in the journal.
const (
	opLoad      = "load"
	opUnload    = "unload"
	opIndex     = "index"
	opDropIndex = "dropindex"
	opTune      = "tune"
	// opProbe is a durable no-op: appended to test whether the journal
	// is writable again after a disk fault flipped the manifest into
	// degraded mode. apply() skips it like any unknown op, so probe
	// records are invisible to replay on every reader, old or new.
	opProbe = "probe"
)

// ErrNotDurable rejects mutating admin operations while the manifest is
// degraded: a journal append failed with a disk fault (ENOSPC, EIO), so
// a mutation could not be made durable and is refused rather than
// acknowledged-then-forgotten. Existing graphs keep serving; a
// successful probe append (Probe) restores durability.
var ErrNotDurable = errors.New("serve: manifest degraded: journal not writable")

// Durability states, as reported by /readyz and /stats.
const (
	DurabilityDurable  = "durable"
	DurabilityDegraded = "degraded"
)

// IndexSpec is one durable index registration: where the artifact lives
// and the build parameters, so a restart can remount it — or rebuild it
// with identical parameters if the artifact is torn.
type IndexSpec struct {
	// Path is the index artifact file (conventionally <graph>.idx).
	Path string `json:"path"`
	// Landmarks/Policy/Seed are the build parameters.
	Landmarks int    `json:"landmarks"`
	Policy    string `json:"policy"`
	Seed      uint64 `json:"seed,omitempty"`
	// Mmap records whether the artifact is remounted via mmap.
	Mmap bool `json:"mmap,omitempty"`
}

// GraphSpec is one durable graph registration: enough to reload the
// graph after a restart. Generated (in-memory) graphs have no path and
// are not journaled.
type GraphSpec struct {
	Name string `json:"name"`
	Path string `json:"path"`
	Mmap bool   `json:"mmap,omitempty"`
	// Index, when non-nil, records a completed index build for this
	// graph (an opIndex journal record folds it in; a fresh opLoad
	// replaces the spec wholesale and so drops it).
	Index *IndexSpec `json:"index,omitempty"`
	// Tune, when non-nil, is the graph's calibrated tuning profile
	// (tune package). A fresh load journals it inline with the load
	// record — one fsync covers both — so a restart reuses the profile
	// without re-calibrating; an opTune record folds a profile into an
	// already-journaled spec (the recovery-time retune path for records
	// written before tuning existed).
	Tune *tune.Profile `json:"tune,omitempty"`
}

// manifestRecord is one journal entry. Seq is assigned at append time
// and is strictly increasing across the journal's lifetime (snapshots
// remember the last seq they cover).
type manifestRecord struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	GraphSpec
}

// manifestSnapshot is the manifest.snap payload.
type manifestSnapshot struct {
	Seq    uint64      `json:"seq"`
	Taken  time.Time   `json:"taken"`
	Graphs []GraphSpec `json:"graphs"`
}

// ManifestStats is the observable state of a manifest, surfaced through
// /stats.
type ManifestStats struct {
	// Seq is the last durably appended record's sequence number.
	Seq uint64 `json:"journal_seq"`
	// Records is the journal length: records appended since the last
	// snapshot (what a restart must replay).
	Records int `json:"journal_records"`
	// SnapshotSeq is the seq covered by manifest.snap (0 = none).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotAt is when the snapshot was taken (zero = none).
	SnapshotAt time.Time `json:"snapshot_at"`
	// TornBytes counts journal bytes dropped at open because the tail
	// was torn or corrupt (0 after a clean shutdown).
	TornBytes int64 `json:"torn_bytes"`
	// Durability is "durable" or "degraded"; DegradedReason carries the
	// disk fault that degraded the journal, empty while durable.
	// Degradations counts durable→degraded transitions over the
	// manifest's lifetime (restored probes do not reset it).
	Durability     string `json:"durability"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Degradations   int64  `json:"degradations,omitempty"`
	// CompactionError is the last snapshot compaction's failure, empty
	// once a later compaction succeeds. Appends stay durable meanwhile;
	// the journal just grows until compaction works again.
	CompactionError string `json:"compaction_error,omitempty"`
}

// Manifest is the durable graph registry: an open journal plus the
// in-memory graph set it implies. All methods are safe for concurrent
// use; appends serialize on an internal mutex (admin mutations are rare
// and each pays one fsync).
type Manifest struct {
	mu  sync.Mutex
	dir string
	log *durable.Log // manifest.log

	seq      uint64 // last durable seq
	snapSeq  uint64
	snapAt   time.Time
	records  int // journal records since snapshot
	every    int // compaction threshold
	torn     int64
	order    []string // graph names in first-load order
	state    map[string]GraphSpec
	closed   bool
	compactE error                // last compaction failure, nil after a success
	logf     func(string, ...any) // compaction failures go here; nil drops them

	// Degraded durability: a failed append (real disk fault or injected
	// manifest.append decision) sets degraded; mutating appends then
	// fail fast with ErrNotDurable until a probe append succeeds.
	degraded   bool
	degReason  string
	degradedCt int64 // cumulative degradations, for stats

	// Fault injection (nil in production): consulted once per append.
	inj  faultinject.Injector
	seqr *faultinject.Sequencer
}

// OpenManifest opens (creating if needed) the durable manifest under
// dir, replaying snapshot + journal. A torn or corrupt journal tail is
// truncated to the last valid record; a missing or unreadable snapshot
// is treated as empty. Only real I/O failures (unusable directory,
// unwritable journal) return an error.
func OpenManifest(dir string, snapshotEvery int) (*Manifest, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: manifest: %w", err)
	}
	m := &Manifest{
		dir:   dir,
		every: snapshotEvery,
		state: make(map[string]GraphSpec),
	}
	m.loadSnapshot()
	log, torn, err := durable.Open(filepath.Join(dir, journalName), manifestMagic, m.replay)
	if err != nil {
		return nil, fmt.Errorf("serve: manifest: journal: %w", err)
	}
	m.log, m.torn = log, torn
	return m, nil
}

// loadSnapshot reads manifest.snap into m.state. The snapshot is
// written atomically (tmp + rename), so a damaged one means storage
// rot; per the never-refuse-to-boot rule it is ignored and recovery
// proceeds from the journal alone.
func (m *Manifest) loadSnapshot() {
	data, err := os.ReadFile(filepath.Join(m.dir, snapshotName))
	if err != nil {
		return // missing or unreadable: start empty
	}
	if len(data) < len(snapshotMagic)+8 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return
	}
	payload, _, ok := decodeFrame(data[len(snapshotMagic):])
	if !ok {
		return
	}
	var snap manifestSnapshot
	if json.Unmarshal(payload, &snap) != nil {
		return
	}
	for _, spec := range snap.Graphs {
		if spec.Name == "" || spec.Path == "" {
			continue
		}
		m.apply(manifestRecord{Op: opLoad, GraphSpec: spec})
	}
	m.seq = snap.Seq
	m.snapSeq = snap.Seq
	m.snapAt = snap.Taken
}

// replay applies every valid journal record with seq > snapSeq and
// returns the byte length of the valid prefix of body, the journal past
// its magic. The first frame that is short, oversized, CRC-mismatched,
// non-JSON or out of sequence ends it (the torn-tail rule).
func (m *Manifest) replay(body []byte) int {
	valid := 0
	for rest := body; len(rest) > 0; rest = body[valid:] {
		payload, n, ok := decodeFrame(rest)
		if !ok {
			break
		}
		var rec manifestRecord
		if json.Unmarshal(payload, &rec) != nil || rec.Seq <= m.seq {
			// Not JSON, or sequence went backwards: corruption. The one
			// benign backward case — records at or below the snapshot's
			// seq left behind by a crash between snapshot rename and
			// journal truncate — is records whose seq <= snapSeq while
			// m.seq still equals snapSeq; those are skipped, not fatal.
			if rec.Seq != 0 && rec.Seq <= m.snapSeq && m.seq == m.snapSeq {
				valid += n
				continue
			}
			break
		}
		m.apply(rec)
		m.seq = rec.Seq
		m.records++
		valid += n
	}
	return valid
}

// decodeFrame parses one framed record from the head of b, returning
// the payload, the total frame length consumed, and whether the frame
// was intact (length sane, payload complete, CRC matching).
func decodeFrame(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(b[0:])
	crc := binary.LittleEndian.Uint32(b[4:])
	if length == 0 || length > maxManifestRecord || uint64(len(b)) < 8+uint64(length) {
		return nil, 0, false
	}
	payload = b[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, 8 + int(length), true
}

// encodeFrame appends the framed payload to dst.
func encodeFrame(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// apply folds one record into the in-memory graph set.
func (m *Manifest) apply(rec manifestRecord) {
	switch rec.Op {
	case opLoad:
		if rec.Name == "" || rec.Path == "" {
			return
		}
		if _, exists := m.state[rec.Name]; !exists {
			m.order = append(m.order, rec.Name)
		}
		m.state[rec.Name] = rec.GraphSpec
	case opUnload:
		if _, exists := m.state[rec.Name]; exists {
			delete(m.state, rec.Name)
			for i, n := range m.order {
				if n == rec.Name {
					m.order = append(m.order[:i], m.order[i+1:]...)
					break
				}
			}
		}
	case opIndex:
		// An index is only meaningful attached to a durably loaded
		// graph; an orphan record (graph unloaded by a later-lost
		// journal suffix, or hand-edited state) is skipped.
		if spec, exists := m.state[rec.Name]; exists && rec.Index != nil {
			spec.Index = rec.Index
			m.state[rec.Name] = spec
		}
	case opDropIndex:
		if spec, exists := m.state[rec.Name]; exists {
			spec.Index = nil
			m.state[rec.Name] = spec
		}
	case opTune:
		// Like opIndex: a tuning profile only means something attached
		// to a durably loaded graph; orphan records are skipped.
		if spec, exists := m.state[rec.Name]; exists && rec.Tune != nil {
			spec.Tune = rec.Tune
			m.state[rec.Name] = spec
		}
	}
	// Unknown ops are skipped: a newer writer's record must not stop an
	// older reader from recovering the rest of the journal.
}

// Contains reports whether name is in the durable graph set. Lifecycle
// code uses it to journal unloads/evictions only for graphs that were
// durably loaded in the first place.
func (m *Manifest) Contains(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.state[name]
	return ok
}

// State returns the durable graph set in first-load order.
func (m *Manifest) State() []GraphSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]GraphSpec, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.state[name])
	}
	return out
}

// Stats snapshots the manifest's observable state.
func (m *Manifest) Stats() ManifestStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ManifestStats{
		Seq:          m.seq,
		Records:      m.records,
		SnapshotSeq:  m.snapSeq,
		SnapshotAt:   m.snapAt,
		TornBytes:    m.torn,
		Durability:   DurabilityDurable,
		Degradations: m.degradedCt,
	}
	if m.degraded {
		st.Durability = DurabilityDegraded
		st.DegradedReason = m.degReason
	}
	if m.compactE != nil {
		st.CompactionError = m.compactE.Error()
	}
	return st
}

// AppendLoad durably records that spec's graph is (re)loaded. It
// returns only after the record is written AND fsync'd; callers must
// not acknowledge the mutation on error.
func (m *Manifest) AppendLoad(spec GraphSpec) error {
	return m.append(manifestRecord{Op: opLoad, GraphSpec: spec})
}

// AppendUnload durably records that the named graph left the serving
// table (explicit unload or budget eviction).
func (m *Manifest) AppendUnload(name string) error {
	return m.append(manifestRecord{Op: opUnload, GraphSpec: GraphSpec{Name: name, Path: "-"}})
}

// AppendIndex durably records a completed index build for the named
// graph. Callers persist the artifact (fsync'd, atomically renamed)
// BEFORE appending, so a recovered record always points at a complete
// file — or at worst one that fails its CRC and triggers a rebuild.
func (m *Manifest) AppendIndex(name string, idx IndexSpec) error {
	return m.append(manifestRecord{Op: opIndex, GraphSpec: GraphSpec{Name: name, Path: "-", Index: &idx}})
}

// AppendTune durably records a calibrated tuning profile for the named
// graph. Fresh loads journal their profile inside the load record
// instead (one fsync); AppendTune exists for recovery-time retunes of
// specs journaled before tuning existed.
func (m *Manifest) AppendTune(name string, prof *tune.Profile) error {
	return m.append(manifestRecord{Op: opTune, GraphSpec: GraphSpec{Name: name, Path: "-", Tune: prof}})
}

// AppendDropIndex durably records that the named graph's index was
// dropped; a restart will not remount it.
func (m *Manifest) AppendDropIndex(name string) error {
	return m.append(manifestRecord{Op: opDropIndex, GraphSpec: GraphSpec{Name: name, Path: "-"}})
}

func (m *Manifest) append(rec manifestRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("serve: manifest: closed")
	}
	if m.degraded {
		// Fail fast: the journal already proved unwritable, so the
		// mutation cannot be made durable. No disk touch here — the
		// probe path owns re-testing the device.
		return fmt.Errorf("%w: %s", ErrNotDurable, m.degReason)
	}
	return m.appendLocked(rec)
}

// appendLocked writes, fsyncs and applies one record; callers hold
// m.mu. Any disk failure — real or injected at the manifest.append
// site — degrades the manifest: the serving table keeps answering
// queries exactly, but mutating operations are refused until a probe
// append proves the journal writable again.
func (m *Manifest) appendLocked(rec manifestRecord) error {
	rec.Seq = m.seq + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: manifest: %w", err)
	}
	if m.inj != nil {
		var key uint64
		if m.seqr != nil {
			key = m.seqr.Next(faultinject.SiteManifestAppend)
		}
		d := faultinject.Decide(m.inj, faultinject.SiteManifestAppend, key)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Err != nil {
			m.degradeLocked(d.Err)
			// Wrap ErrNotDurable so the op that discovered the disk
			// fault is refused the same typed way as the ones after it.
			return fmt.Errorf("%w: appending: %v", ErrNotDurable, d.Err)
		}
	}
	if err := m.log.Append(encodeFrame(nil, payload)); err != nil {
		m.degradeLocked(err)
		return fmt.Errorf("%w: appending: %v", ErrNotDurable, err)
	}
	m.seq = rec.Seq
	m.records++
	m.apply(rec)
	if m.records >= m.every {
		// Compaction failure never fails the append — the record above
		// is already durable; the journal stays long and the next
		// append retries.
		m.compactLocked()
	}
	return nil
}

// degradeLocked flips the manifest into non-durable mode; callers hold
// m.mu. Idempotent: the first fault's reason sticks until restored.
func (m *Manifest) degradeLocked(cause error) {
	if m.degraded {
		return
	}
	m.degraded = true
	m.degReason = cause.Error()
	m.degradedCt++
}

// Probe attempts a durable no-op append to test whether the journal is
// writable again. On success a degraded manifest is restored to durable
// mode; on a manifest that is already durable it is a no-op. The probe
// record uses an op unknown to apply(), so it is invisible to replay.
func (m *Manifest) Probe() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("serve: manifest: closed")
	}
	if !m.degraded {
		return nil
	}
	// A still-failing disk leaves the degraded state untouched
	// (degradeLocked is idempotent); a clean write-and-fsync is proof
	// of recovery.
	if err := m.appendLocked(manifestRecord{Op: opProbe}); err != nil {
		return err
	}
	m.degraded = false
	m.degReason = ""
	return nil
}

// Degraded reports whether the manifest is in non-durable mode, and the
// disk fault that put it there.
func (m *Manifest) Degraded() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded, m.degReason
}

// compactLocked writes the current graph set as a snapshot covering
// m.seq, then truncates the journal. Ordering is what makes a crash at
// any point here safe: the snapshot is durable (tmp, fsync, rename,
// dir fsync) BEFORE any journal byte is dropped. The outcome is kept
// for Stats (a success clears an earlier failure) and a failure logged.
func (m *Manifest) compactLocked() error {
	snap := manifestSnapshot{
		Seq:    m.seq,
		Taken:  time.Now().UTC(),
		Graphs: make([]GraphSpec, 0, len(m.order)),
	}
	for _, name := range m.order {
		snap.Graphs = append(snap.Graphs, m.state[name])
	}
	img, err := encodeSnapshot(snap)
	if err == nil {
		err = durable.WriteFile(filepath.Join(m.dir, snapshotName), img)
	}
	if err == nil {
		err = m.log.Reset()
	}
	if m.compactE = err; err != nil {
		if m.logf != nil {
			m.logf("serve: manifest: compaction failed, the journal keeps growing: %v", err)
		}
		return fmt.Errorf("serve: manifest: compaction: %w", err)
	}
	m.snapSeq = m.seq
	m.snapAt = snap.Taken
	m.records = 0
	return nil
}

// encodeSnapshot returns the manifest.snap image of snap: the snapshot
// magic and one frame holding its JSON.
func encodeSnapshot(snap manifestSnapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	return encodeFrame([]byte(snapshotMagic), payload), nil
}

// Close releases the journal file handle. Appended records are already
// durable; Close exists for tests and orderly shutdown.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.log.Close()
}
