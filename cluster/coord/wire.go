// Package coord is the multi-process distributed BFS: a Coordinator
// drives level-synchronous BFS rounds over HTTP against N Shard
// processes, each owning a contiguous 1D vertex partition
// (owner-computes, per Buluç & Madduri's distributed BFS formulation).
// Frontier exchange is bitmap-compressed — one bit per vertex of the
// destination shard's owned range — and every wire payload is CRC-framed
// so torn or corrupted messages are rejected, never half-applied.
//
// Fault tolerance is the design center, not an afterthought:
//
//   - Round messages are idempotent. Every expand request carries
//     (epoch, round); a shard that already processed a round replays its
//     checkpointed response, so duplicate and retried deliveries are
//     harmless.
//   - The coordinator retries failed RPCs with deadlines and jittered
//     exponential backoff (Backoff), detects shard failures by
//     heartbeat, and replays rounds against shards that restart from
//     their per-round checkpoint.
//   - A shard that restarts without state forces an epoch restart: the
//     whole traversal re-runs under a fresh epoch (bounded count), which
//     is always safe because epochs never share state.
//   - A shard that stays dead past the recovery budget degrades the run:
//     the surviving shards finish and the Result carries the reachable
//     subset with Incomplete set, instead of hanging or erroring out.
//
// This file defines the wire formats; shard.go and coord.go implement
// the two processes.
package coord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"fastbfs/graph"
)

// Wire magics. Eight bytes each, like the graph-file and manifest
// framing, so a payload routed to the wrong decoder fails immediately.
const (
	frontierMagic = "FBFSFRN1"
	expandMagic   = "FBFSEXP1"
	depthsMagic   = "FBFSDEP1"
)

// maxWireFrames bounds the per-destination frames inside one expand
// response; a destination per shard means anything past this is a
// corrupt count field, not a real cluster.
const maxWireFrames = 1 << 16

// ErrWire rejects a malformed, truncated or checksum-mismatched wire
// payload. It is the cluster analogue of graph.ErrChecksum: a payload
// either decodes in full or is refused — never partially applied.
var ErrWire = errors.New("coord: malformed wire payload")

// PartitionRange returns the contiguous vertex range [lo, hi) owned by
// shard i of shards over an n-vertex graph: equal ceil(n/shards)-sized
// blocks, with the tail shards owning less (possibly empty) ranges.
func PartitionRange(n, shards, i int) (lo, hi uint32) {
	per := (n + shards - 1) / shards
	l := i * per
	if l > n {
		l = n
	}
	h := l + per
	if h > n {
		h = n
	}
	return uint32(l), uint32(h)
}

// PartitionOwner returns the shard owning vertex v under the same
// partitioning.
func PartitionOwner(n, shards int, v uint32) int {
	per := (n + shards - 1) / shards
	o := int(v) / per
	if o >= shards {
		o = shards - 1
	}
	return o
}

// Frontier is a bitmap of vertices inside one shard's owned range — the
// unit of frontier exchange. The coordinator sends one per shard per
// round (the round's claim candidates); shards return one per
// destination shard (the round's discoveries).
type Frontier struct {
	Epoch uint64
	Round uint32
	// Shard is the destination shard (the owner of [Lo, Hi)).
	Shard  uint32
	Lo, Hi uint32
	words  []uint32
}

// NewFrontier returns an empty frontier over [lo, hi) destined for
// shard.
func NewFrontier(epoch uint64, round, shard, lo, hi uint32) *Frontier {
	return &Frontier{
		Epoch: epoch, Round: round, Shard: shard, Lo: lo, Hi: hi,
		words: make([]uint32, frontierWords(lo, hi)),
	}
}

func frontierWords(lo, hi uint32) int {
	if hi <= lo {
		return 0
	}
	return int(hi-lo+31) / 32
}

// Set marks vertex v (which must lie in [Lo, Hi)).
func (f *Frontier) Set(v uint32) {
	i := v - f.Lo
	f.words[i>>5] |= 1 << (i & 31)
}

// Has reports whether vertex v is marked.
func (f *Frontier) Has(v uint32) bool {
	if v < f.Lo || v >= f.Hi {
		return false
	}
	i := v - f.Lo
	return f.words[i>>5]&(1<<(i&31)) != 0
}

// Count returns the number of marked vertices.
func (f *Frontier) Count() int {
	c := 0
	for _, w := range f.words {
		c += bits.OnesCount32(w)
	}
	return c
}

// Empty reports whether no vertex is marked.
func (f *Frontier) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every marked vertex in ascending order.
func (f *Frontier) ForEach(fn func(v uint32)) {
	for wi, w := range f.words {
		for w != 0 {
			b := bits.TrailingZeros32(w)
			v := f.Lo + uint32(wi<<5+b)
			if v < f.Hi {
				fn(v)
			}
			w &^= 1 << b
		}
	}
}

// Union ors o into f; both must cover the identical range.
func (f *Frontier) Union(o *Frontier) error {
	if o.Lo != f.Lo || o.Hi != f.Hi {
		return fmt.Errorf("coord: union over mismatched ranges [%d,%d) vs [%d,%d)", f.Lo, f.Hi, o.Lo, o.Hi)
	}
	for i, w := range o.words {
		f.words[i] |= w
	}
	return nil
}

// frontierEncodedLen is the exact wire size of a frontier over the
// given range: magic + epoch + round/shard/lo/hi/nwords + words + crc.
func frontierEncodedLen(lo, hi uint32) int {
	return len(frontierMagic) + 8 + 5*4 + 4*frontierWords(lo, hi) + 4
}

// AppendEncode appends the frontier's wire encoding to dst.
func (f *Frontier) AppendEncode(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, frontierMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, f.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, f.Round)
	dst = binary.LittleEndian.AppendUint32(dst, f.Shard)
	dst = binary.LittleEndian.AppendUint32(dst, f.Lo)
	dst = binary.LittleEndian.AppendUint32(dst, f.Hi)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.words)))
	for _, w := range f.words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return appendCRC(dst, start)
}

// Encode returns the frontier's wire encoding.
func (f *Frontier) Encode() []byte {
	return f.AppendEncode(make([]byte, 0, frontierEncodedLen(f.Lo, f.Hi)))
}

// DecodeFrontier parses exactly one frontier frame occupying all of b.
func DecodeFrontier(b []byte) (*Frontier, error) {
	f, n, err := decodeFrontierPrefix(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after frontier frame", ErrWire, len(b)-n)
	}
	return f, nil
}

// decodeFrontierPrefix parses one frontier frame from the head of b,
// returning it and the bytes consumed.
func decodeFrontierPrefix(b []byte) (*Frontier, int, error) {
	const fixed = len(frontierMagic) + 8 + 5*4
	if len(b) < fixed+4 {
		return nil, 0, fmt.Errorf("%w: frontier frame truncated at %d bytes", ErrWire, len(b))
	}
	if string(b[:len(frontierMagic)]) != frontierMagic {
		return nil, 0, fmt.Errorf("%w: bad frontier magic", ErrWire)
	}
	f := &Frontier{
		Epoch: binary.LittleEndian.Uint64(b[8:]),
		Round: binary.LittleEndian.Uint32(b[16:]),
		Shard: binary.LittleEndian.Uint32(b[20:]),
		Lo:    binary.LittleEndian.Uint32(b[24:]),
		Hi:    binary.LittleEndian.Uint32(b[28:]),
	}
	nwords := binary.LittleEndian.Uint32(b[32:])
	if f.Hi < f.Lo || f.Hi > graph.MaxVertices {
		return nil, 0, fmt.Errorf("%w: frontier range [%d,%d) invalid", ErrWire, f.Lo, f.Hi)
	}
	if int(nwords) != frontierWords(f.Lo, f.Hi) {
		return nil, 0, fmt.Errorf("%w: frontier has %d words, range [%d,%d) needs %d",
			ErrWire, nwords, f.Lo, f.Hi, frontierWords(f.Lo, f.Hi))
	}
	total := fixed + 4*int(nwords) + 4
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: frontier frame truncated: %d of %d bytes", ErrWire, len(b), total)
	}
	if err := checkCRC(b[:total]); err != nil {
		return nil, 0, err
	}
	f.words = make([]uint32, nwords)
	for i := range f.words {
		f.words[i] = binary.LittleEndian.Uint32(b[fixed+4*i:])
	}
	// Bits past Hi inside the last word would be invisible to ForEach
	// but corrupt Count; reject them as the garbage they are.
	if n := int(f.Hi-f.Lo) & 31; n != 0 && nwords > 0 {
		if f.words[nwords-1]&^(1<<n-1) != 0 {
			return nil, 0, fmt.Errorf("%w: frontier bits set past range end", ErrWire)
		}
	}
	return f, total, nil
}

// ExpandResponse is a shard's answer to one round: how many owned
// vertices it newly claimed, and the discovered neighbors grouped into
// per-destination frontier bitmaps (only non-empty destinations are
// present).
type ExpandResponse struct {
	Epoch uint64
	Round uint32
	// Shard is the responding shard.
	Shard   uint32
	Claimed uint64
	Out     []*Frontier
}

// Encode returns the response's wire encoding: an outer CRC-framed
// envelope carrying the (already self-framed) per-destination frontiers.
func (r *ExpandResponse) Encode() []byte {
	size := len(expandMagic) + 8 + 4 + 4 + 8 + 4 + 4
	for _, f := range r.Out {
		size += 4 + frontierEncodedLen(f.Lo, f.Hi)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, expandMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, r.Round)
	dst = binary.LittleEndian.AppendUint32(dst, r.Shard)
	dst = binary.LittleEndian.AppendUint64(dst, r.Claimed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Out)))
	for _, f := range r.Out {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(frontierEncodedLen(f.Lo, f.Hi)))
		dst = f.AppendEncode(dst)
	}
	return appendCRC(dst, 0)
}

// DecodeExpandResponse parses a response frame occupying all of b.
func DecodeExpandResponse(b []byte) (*ExpandResponse, error) {
	const fixed = len(expandMagic) + 8 + 4 + 4 + 8 + 4
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("%w: expand response truncated at %d bytes", ErrWire, len(b))
	}
	if string(b[:len(expandMagic)]) != expandMagic {
		return nil, fmt.Errorf("%w: bad expand-response magic", ErrWire)
	}
	if err := checkCRC(b); err != nil {
		return nil, err
	}
	r := &ExpandResponse{
		Epoch:   binary.LittleEndian.Uint64(b[8:]),
		Round:   binary.LittleEndian.Uint32(b[16:]),
		Shard:   binary.LittleEndian.Uint32(b[20:]),
		Claimed: binary.LittleEndian.Uint64(b[24:]),
	}
	nframes := binary.LittleEndian.Uint32(b[32:])
	if nframes > maxWireFrames {
		return nil, fmt.Errorf("%w: %d frames in expand response", ErrWire, nframes)
	}
	rest := b[fixed : len(b)-4]
	for i := uint32(0); i < nframes; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: expand response frame %d missing length", ErrWire, i)
		}
		flen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(flen) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: expand response frame %d overruns envelope", ErrWire, i)
		}
		f, err := DecodeFrontier(rest[:flen])
		if err != nil {
			return nil, err
		}
		if f.Epoch != r.Epoch || f.Round != r.Round {
			return nil, fmt.Errorf("%w: frame %d tagged (epoch %d, round %d) inside envelope (epoch %d, round %d)",
				ErrWire, i, f.Epoch, f.Round, r.Epoch, r.Round)
		}
		r.Out = append(r.Out, f)
		rest = rest[flen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in expand response", ErrWire, len(rest))
	}
	return r, nil
}

// DepthSlice is a shard's final answer: the committed depths of its
// owned range for one epoch (-1 = unreached).
type DepthSlice struct {
	Epoch  uint64
	Shard  uint32
	Lo, Hi uint32
	Depth  []int32
}

// Encode returns the slice's wire encoding.
func (d *DepthSlice) Encode() []byte {
	dst := make([]byte, 0, len(depthsMagic)+8+3*4+4*len(d.Depth)+4)
	dst = append(dst, depthsMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, d.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, d.Shard)
	dst = binary.LittleEndian.AppendUint32(dst, d.Lo)
	dst = binary.LittleEndian.AppendUint32(dst, d.Hi)
	for _, v := range d.Depth {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return appendCRC(dst, 0)
}

// DecodeDepthSlice parses a depth-slice frame occupying all of b.
func DecodeDepthSlice(b []byte) (*DepthSlice, error) {
	const fixed = len(depthsMagic) + 8 + 3*4
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("%w: depth slice truncated at %d bytes", ErrWire, len(b))
	}
	if string(b[:len(depthsMagic)]) != depthsMagic {
		return nil, fmt.Errorf("%w: bad depth-slice magic", ErrWire)
	}
	d := &DepthSlice{
		Epoch: binary.LittleEndian.Uint64(b[8:]),
		Shard: binary.LittleEndian.Uint32(b[16:]),
		Lo:    binary.LittleEndian.Uint32(b[20:]),
		Hi:    binary.LittleEndian.Uint32(b[24:]),
	}
	if d.Hi < d.Lo || d.Hi > graph.MaxVertices {
		return nil, fmt.Errorf("%w: depth slice range [%d,%d) invalid", ErrWire, d.Lo, d.Hi)
	}
	if want := fixed + 4*int(d.Hi-d.Lo) + 4; len(b) != want {
		return nil, fmt.Errorf("%w: depth slice is %d bytes, range [%d,%d) needs %d",
			ErrWire, len(b), d.Lo, d.Hi, want)
	}
	if err := checkCRC(b); err != nil {
		return nil, err
	}
	d.Depth = make([]int32, d.Hi-d.Lo)
	for i := range d.Depth {
		d.Depth[i] = int32(binary.LittleEndian.Uint32(b[fixed+4*i:]))
	}
	return d, nil
}

// appendCRC appends the CRC32 (IEEE) of dst[start:] to dst.
func appendCRC(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// checkCRC verifies that the last 4 bytes of b checksum the rest.
func checkCRC(b []byte) error {
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("%w: checksum mismatch", ErrWire)
	}
	return nil
}
