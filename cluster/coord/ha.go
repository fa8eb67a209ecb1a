// High-availability wire records: the durable vocabulary of the
// replicated cluster's control plane. Three record types, each
// magic-tagged and CRC-framed exactly like the round-protocol payloads
// in wire.go, with one canonical encoding apiece:
//
//   - Lease (FBFSLSE1): who coordinates, under which monotonic fencing
//     token, and until when. The active coordinator refreshes Expires on
//     every renewal tick; a standby that stops seeing fresh leases takes
//     over with Token+1, and every shard rejects round requests carrying
//     an older token (ErrFenced), so a deposed coordinator's stale
//     rounds can never be half-applied.
//   - GroupAssignment (FBFSGRP1): the cluster membership — how many
//     partition groups, how many replicas per group, and the shard URL
//     for every (group, replica) slot in group-major order.
//   - EpochState (FBFSEPO1): one in-flight traversal's resumable state —
//     epoch id, source, fencing token, the next round to send, and the
//     encoded candidate frontier per group for exactly that round. A
//     coordinator journals this before each round escapes; a standby
//     restored from it re-sends the journaled round, which every shard
//     either processes normally or answers from its byte-exact cached
//     response — the idempotent round protocol makes coordinator
//     failover just another retry.
//
// These records travel on disk (the coordinator journal, journal.go)
// and over HTTP (GET /cluster/state, POST /cluster/mirror in cmd/bfsd),
// so their decoders follow the FuzzDecodeFrontier contract: never
// panic, reject anything non-canonical with ErrWire, and re-encode
// accepted payloads byte-for-byte.
package coord

import (
	"encoding/binary"
	"fmt"
)

// HA record magics, eight bytes each like every other frame in the
// system, so a record routed to the wrong decoder fails immediately.
const (
	leaseMagic      = "FBFSLSE1"
	assignmentMagic = "FBFSGRP1"
	epochMagic      = "FBFSEPO1"
)

// maxHolder bounds the lease holder string; longer values are a corrupt
// length field, not a real URL.
const maxHolder = 1 << 12

// Lease is the coordination lease: Token is the monotonic fencing
// token, Holder the coordinator URL that owns it, and Expires the
// wall-clock instant (unix nanoseconds) past which a standby may assume
// the holder is gone and take over with Token+1.
type Lease struct {
	Token   uint64
	Expires int64
	Holder  string
}

// Encode returns the lease's canonical wire encoding.
func (l *Lease) Encode() []byte {
	dst := make([]byte, 0, len(leaseMagic)+8+8+4+len(l.Holder)+4)
	dst = append(dst, leaseMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, l.Token)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(l.Expires))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l.Holder)))
	dst = append(dst, l.Holder...)
	return appendCRC(dst, 0)
}

// DecodeLease parses a lease frame occupying all of b.
func DecodeLease(b []byte) (*Lease, error) {
	const fixed = len(leaseMagic) + 8 + 8 + 4
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("%w: lease truncated at %d bytes", ErrWire, len(b))
	}
	if string(b[:len(leaseMagic)]) != leaseMagic {
		return nil, fmt.Errorf("%w: bad lease magic", ErrWire)
	}
	hlen := binary.LittleEndian.Uint32(b[24:])
	if hlen > maxHolder {
		return nil, fmt.Errorf("%w: lease holder field of %d bytes", ErrWire, hlen)
	}
	if len(b) != fixed+int(hlen)+4 {
		return nil, fmt.Errorf("%w: lease is %d bytes, holder of %d needs %d",
			ErrWire, len(b), hlen, fixed+int(hlen)+4)
	}
	if err := checkCRC(b); err != nil {
		return nil, err
	}
	return &Lease{
		Token:   binary.LittleEndian.Uint64(b[8:]),
		Expires: int64(binary.LittleEndian.Uint64(b[16:])),
		Holder:  string(b[fixed : fixed+int(hlen)]),
	}, nil
}

// GroupAssignment is the cluster's membership: Groups partition groups,
// Replicas shards per group, and the URL of every (group, replica) slot
// in group-major order (URLs[g*Replicas+r]).
type GroupAssignment struct {
	Groups   uint32
	Replicas uint32
	URLs     []string
}

// Encode returns the assignment's canonical wire encoding.
func (a *GroupAssignment) Encode() []byte {
	size := len(assignmentMagic) + 4 + 4 + 4
	for _, u := range a.URLs {
		size += 4 + len(u)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, assignmentMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, a.Groups)
	dst = binary.LittleEndian.AppendUint32(dst, a.Replicas)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.URLs)))
	for _, u := range a.URLs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(u)))
		dst = append(dst, u...)
	}
	return appendCRC(dst, 0)
}

// DecodeGroupAssignment parses an assignment frame occupying all of b.
func DecodeGroupAssignment(b []byte) (*GroupAssignment, error) {
	const fixed = len(assignmentMagic) + 4 + 4 + 4
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("%w: assignment truncated at %d bytes", ErrWire, len(b))
	}
	if string(b[:len(assignmentMagic)]) != assignmentMagic {
		return nil, fmt.Errorf("%w: bad assignment magic", ErrWire)
	}
	if err := checkCRC(b); err != nil {
		return nil, err
	}
	a := &GroupAssignment{
		Groups:   binary.LittleEndian.Uint32(b[8:]),
		Replicas: binary.LittleEndian.Uint32(b[12:]),
	}
	n := binary.LittleEndian.Uint32(b[16:])
	if n > maxWireFrames {
		return nil, fmt.Errorf("%w: assignment lists %d members", ErrWire, n)
	}
	if a.Groups == 0 || a.Replicas == 0 || uint64(a.Groups)*uint64(a.Replicas) != uint64(n) {
		return nil, fmt.Errorf("%w: assignment of %d groups x %d replicas lists %d URLs",
			ErrWire, a.Groups, a.Replicas, n)
	}
	rest := b[fixed : len(b)-4]
	a.URLs = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: assignment member %d missing length", ErrWire, i)
		}
		ulen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if ulen > maxHolder || uint64(ulen) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: assignment member %d overruns frame", ErrWire, i)
		}
		a.URLs = append(a.URLs, string(rest[:ulen]))
		rest = rest[ulen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in assignment", ErrWire, len(rest))
	}
	return a, nil
}

// EpochState is one traversal's resumable coordination state: the next
// round to send and the candidate frontier (encoded, canonical) for
// every group at exactly that round. Done marks a completed epoch and
// carries no candidates.
type EpochState struct {
	Epoch  uint64
	Fence  uint64
	Source uint32
	Round  uint32
	Done   bool
	// Cand[g] is the encoded candidate Frontier destined for group g at
	// Round. Empty when Done.
	Cand [][]byte
}

// Encode returns the epoch state's canonical wire encoding.
func (e *EpochState) Encode() []byte {
	size := len(epochMagic) + 8 + 8 + 4 + 4 + 1 + 4
	for _, c := range e.Cand {
		size += 4 + len(c)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, epochMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, e.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, e.Fence)
	dst = binary.LittleEndian.AppendUint32(dst, e.Source)
	dst = binary.LittleEndian.AppendUint32(dst, e.Round)
	if e.Done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Cand)))
	for _, c := range e.Cand {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c)))
		dst = append(dst, c...)
	}
	return appendCRC(dst, 0)
}

// DecodeEpochState parses an epoch-state frame occupying all of b.
// Every candidate must itself be a canonical Frontier frame tagged with
// the record's epoch and round and destined for its own slot — a
// journaled round a standby cannot actually replay is corruption, not
// state.
func DecodeEpochState(b []byte) (*EpochState, error) {
	const fixed = len(epochMagic) + 8 + 8 + 4 + 4 + 1 + 4
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("%w: epoch state truncated at %d bytes", ErrWire, len(b))
	}
	if string(b[:len(epochMagic)]) != epochMagic {
		return nil, fmt.Errorf("%w: bad epoch-state magic", ErrWire)
	}
	if err := checkCRC(b); err != nil {
		return nil, err
	}
	e := &EpochState{
		Epoch:  binary.LittleEndian.Uint64(b[8:]),
		Fence:  binary.LittleEndian.Uint64(b[16:]),
		Source: binary.LittleEndian.Uint32(b[24:]),
		Round:  binary.LittleEndian.Uint32(b[28:]),
	}
	switch b[32] {
	case 0:
	case 1:
		e.Done = true
	default:
		return nil, fmt.Errorf("%w: epoch-state done flag %d", ErrWire, b[32])
	}
	n := binary.LittleEndian.Uint32(b[33:])
	if n > maxWireFrames {
		return nil, fmt.Errorf("%w: epoch state lists %d candidates", ErrWire, n)
	}
	if e.Done && n != 0 {
		return nil, fmt.Errorf("%w: completed epoch state carries %d candidates", ErrWire, n)
	}
	rest := b[fixed : len(b)-4]
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: epoch-state candidate %d missing length", ErrWire, i)
		}
		clen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(clen) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: epoch-state candidate %d overruns frame", ErrWire, i)
		}
		f, err := DecodeFrontier(rest[:clen])
		if err != nil {
			return nil, fmt.Errorf("epoch-state candidate %d: %w", i, err)
		}
		if f.Epoch != e.Epoch || f.Round != e.Round || f.Shard != i {
			return nil, fmt.Errorf("%w: candidate %d tagged (epoch %d, round %d, group %d) inside state (epoch %d, round %d)",
				ErrWire, i, f.Epoch, f.Round, f.Shard, e.Epoch, e.Round)
		}
		e.Cand = append(e.Cand, append([]byte(nil), rest[:clen]...))
		rest = rest[clen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in epoch state", ErrWire, len(rest))
	}
	return e, nil
}

// AppendFrame appends one length-prefixed record to dst — the framing
// the coordinator journal and the /cluster/state reply share.
func AppendFrame(dst, rec []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec)))
	return append(dst, rec...)
}

// SplitFrames splits a concatenation of length-prefixed records.
func SplitFrames(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: dangling %d-byte frame header", ErrWire, len(b))
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return nil, fmt.Errorf("%w: frame of %d bytes overruns buffer of %d", ErrWire, n, len(b))
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out, nil
}
