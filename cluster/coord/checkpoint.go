package coord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"fastbfs/internal/durable"
)

// Checkpoint is a full snapshot of a shard's round state: everything
// needed to resume the round protocol after a crash. Resp holds the
// encoded ExpandResponse of the last processed round, so a coordinator
// retry of that round after a restart replays the identical bytes — the
// idempotency guarantee survives the crash, not just the process.
//
// Shards no longer write snapshots each round; they keep a round log
// (below) in the same file. A snapshot written by SaveCheckpoint still
// restores a shard, whose next round rewrites it as a round log.
type Checkpoint struct {
	Epoch  uint64
	Round  uint32 // next round the shard expects
	Source uint32
	// Fence is the highest fencing token the shard has admitted; it
	// rides the round checkpoint so a restarted replica keeps rejecting
	// a deposed coordinator's stale rounds (best effort: the token is
	// only as durable as the last checkpointed round).
	Fence  uint64
	Lo, Hi uint32
	Depth  []int32
	Resp   []byte // encoded ExpandResponse of round Round-1; may be empty
}

const (
	checkpointMagic = "FBFSCKP2"
	// checkpointMagicV1 is the pre-fencing format, still loadable
	// (fence defaults to 0) so an upgraded shard keeps its round state.
	checkpointMagicV1 = "FBFSCKP1"
	// maxCheckpointResp bounds the cached-response field on load; a
	// larger value is a corrupt length, not a real response.
	maxCheckpointResp = 1 << 30
)

// ErrCheckpoint rejects a corrupt checkpoint file. Loaders treat it
// like a missing file (fresh start) — a half-written checkpoint from a
// crash mid-save must never block a shard from booting.
var ErrCheckpoint = errors.New("coord: corrupt checkpoint")

// checkpointPath returns the checkpoint file location inside dir.
func checkpointPath(dir string) string { return filepath.Join(dir, "shard.ckpt") }

// SaveCheckpoint atomically persists c into dir (write temp, fsync,
// rename, fsync dir): readers see the previous checkpoint or this one,
// never a torn mix.
func SaveCheckpoint(dir string, c *Checkpoint) error {
	if uint32(len(c.Depth)) != c.Hi-c.Lo {
		return fmt.Errorf("coord: checkpoint depth length %d does not cover [%d,%d)", len(c.Depth), c.Lo, c.Hi)
	}
	buf := make([]byte, 0, len(checkpointMagic)+8+8+4*4+4*len(c.Depth)+4+len(c.Resp)+4)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, c.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, c.Round)
	buf = binary.LittleEndian.AppendUint32(buf, c.Source)
	buf = binary.LittleEndian.AppendUint64(buf, c.Fence)
	buf = binary.LittleEndian.AppendUint32(buf, c.Lo)
	buf = binary.LittleEndian.AppendUint32(buf, c.Hi)
	for _, d := range c.Depth {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Resp)))
	buf = append(buf, c.Resp...)
	buf = appendCRC(buf, 0)

	return durable.WriteFile(checkpointPath(dir), buf)
}

// decodeCheckpoint parses a FBFSCKP1 or FBFSCKP2 snapshot.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < len(checkpointMagic) {
		return nil, fmt.Errorf("%w: truncated at %d bytes", ErrCheckpoint, len(b))
	}
	// fixed is the byte length of magic + scalar header for the format
	// at hand; v1 files lack the 8-byte fence field.
	fixed := len(checkpointMagic) + 8 + 8 + 4*4
	switch string(b[:len(checkpointMagic)]) {
	case checkpointMagic:
	case checkpointMagicV1:
		fixed -= 8
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	if len(b) < fixed+4+4 {
		return nil, fmt.Errorf("%w: truncated at %d bytes", ErrCheckpoint, len(b))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpoint)
	}
	c := &Checkpoint{
		Epoch:  binary.LittleEndian.Uint64(b[8:]),
		Round:  binary.LittleEndian.Uint32(b[16:]),
		Source: binary.LittleEndian.Uint32(b[20:]),
	}
	off := 24
	if string(b[:len(checkpointMagic)]) == checkpointMagic {
		c.Fence = binary.LittleEndian.Uint64(b[off:])
		off += 8
	}
	c.Lo = binary.LittleEndian.Uint32(b[off:])
	c.Hi = binary.LittleEndian.Uint32(b[off+4:])
	if c.Hi < c.Lo {
		return nil, fmt.Errorf("%w: range [%d,%d) invalid", ErrCheckpoint, c.Lo, c.Hi)
	}
	ndepth := int(c.Hi - c.Lo)
	if len(b) < fixed+4*ndepth+4+4 {
		return nil, fmt.Errorf("%w: %d bytes cannot hold %d depths", ErrCheckpoint, len(b), ndepth)
	}
	c.Depth = make([]int32, ndepth)
	for i := range c.Depth {
		c.Depth[i] = int32(binary.LittleEndian.Uint32(b[fixed+4*i:]))
	}
	off = fixed + 4*ndepth
	rlen := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if rlen > maxCheckpointResp || off+int(rlen)+4 != len(b) {
		return nil, fmt.Errorf("%w: response field length %d inconsistent with %d-byte file", ErrCheckpoint, rlen, len(b))
	}
	if rlen > 0 {
		c.Resp = append([]byte(nil), b[off:off+int(rlen)]...)
	}
	return c, nil
}

// The round log is a shard's durable round state, kept in shard.ckpt:
//
//	header  "FBFSRLG1" | epoch u64 | lo u32 | hi u32 | fence u64 | crc32
//	record  round u32 | fence u64 | n u32 | n claimed offsets u32 | crc32
//
// One record per processed round, in round order from 0, each listing
// the owned offsets (vertex - lo, ascending) the round claimed. A vertex
// is claimed at most once per epoch and each epoch starts a new file, so
// a log holds at most one fixed-size record per round plus four bytes per
// owned vertex. Replaying the claims rebuilds the depths: a vertex's
// depth is the round that claimed it.
const (
	roundLogMagic  = "FBFSRLG1"
	logHeaderLen   = len(roundLogMagic) + 8 + 4 + 4 + 8 + 4
	logRecordFixed = 4 + 8 + 4 + 4
)

// appendLogHeader appends a round-log header to dst.
func appendLogHeader(dst []byte, epoch uint64, lo, hi uint32, fence uint64) []byte {
	start := len(dst)
	dst = append(dst, roundLogMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint32(dst, lo)
	dst = binary.LittleEndian.AppendUint32(dst, hi)
	dst = binary.LittleEndian.AppendUint64(dst, fence)
	return appendCRC(dst, start)
}

// appendLogRecord appends one round's record to dst.
func appendLogRecord(dst []byte, round uint32, fence uint64, claimed []uint32) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, round)
	dst = binary.LittleEndian.AppendUint64(dst, fence)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(claimed)))
	for _, off := range claimed {
		dst = binary.LittleEndian.AppendUint32(dst, off)
	}
	return appendCRC(dst, start)
}

// roundLog is a round log replayed into shard state.
type roundLog struct {
	epoch, fence uint64
	next         uint32   // rounds recorded, i.e. the next round expected
	depth        []int32  // per owned offset; -1 = unclaimed
	last         []uint32 // offsets claimed by round next-1
	size         int      // length of the valid prefix; a torn tail follows
}

// loadRoundLog replays b, the round log of a shard owning [lo, hi). A
// header that is short, corrupt or for another partition is an
// ErrCheckpoint. Records replay until the first one that is cut short,
// fails its CRC or does not follow on: a round out of order, a lower
// fence, or an offset that is out of range, out of order or already
// claimed. That record and everything after it are a torn tail.
func loadRoundLog(b []byte, lo, hi uint32) (*roundLog, error) {
	if len(b) < logHeaderLen || string(b[:len(roundLogMagic)]) != roundLogMagic {
		return nil, fmt.Errorf("%w: round log header truncated or bad magic", ErrCheckpoint)
	}
	if checkCRC(b[:logHeaderLen]) != nil {
		return nil, fmt.Errorf("%w: round log header checksum mismatch", ErrCheckpoint)
	}
	if hlo, hhi := binary.LittleEndian.Uint32(b[16:]), binary.LittleEndian.Uint32(b[20:]); hlo != lo || hhi != hi {
		return nil, fmt.Errorf("%w: round log covers [%d,%d), partition is [%d,%d)", ErrCheckpoint, hlo, hhi, lo, hi)
	}
	rl := &roundLog{
		epoch: binary.LittleEndian.Uint64(b[8:]),
		fence: binary.LittleEndian.Uint64(b[24:]),
		depth: make([]int32, hi-lo),
		size:  logHeaderLen,
	}
	for i := range rl.depth {
		rl.depth[i] = -1
	}
	var last []byte
	for rest := b[rl.size:]; len(rest) >= logRecordFixed; rest = b[rl.size:] {
		n := binary.LittleEndian.Uint32(rest[12:])
		if n > hi-lo || len(rest) < logRecordFixed+4*int(n) {
			break
		}
		rec := rest[:logRecordFixed+4*int(n)]
		round, fence := binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint64(rec[4:])
		offs := rec[16 : len(rec)-4]
		if checkCRC(rec) != nil || round != rl.next || fence < rl.fence || !claimable(rl.depth, offs) {
			break
		}
		for i := 0; i < len(offs); i += 4 {
			rl.depth[binary.LittleEndian.Uint32(offs[i:])] = int32(round)
		}
		rl.next++
		rl.fence = fence
		rl.size += len(rec)
		last = offs
	}
	rl.last = make([]uint32, len(last)/4)
	for i := range rl.last {
		rl.last[i] = binary.LittleEndian.Uint32(last[4*i:])
	}
	return rl, nil
}

// claimable reports whether offs, little-endian offsets, are strictly
// ascending and name only unclaimed vertices of depth.
func claimable(depth []int32, offs []byte) bool {
	prev := -1
	for i := 0; i < len(offs); i += 4 {
		off := int(binary.LittleEndian.Uint32(offs[i:]))
		if off <= prev || off >= len(depth) || depth[off] != -1 {
			return false
		}
		prev = off
	}
	return true
}
