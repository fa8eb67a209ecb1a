package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"unsafe"

	"fastbfs/internal/durable"
)

// hostLittleEndian reports whether multi-byte integers can alias the
// file's little-endian encoding directly (same check as graph's mmap
// loader).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Binary format: fixed header, the landmark and label arrays in
// little-endian order with 8-byte section alignment, then the same
// CRC32 footer discipline as graph files. Every multi-byte array
// section starts 8-aligned (pads are written as zero bytes and must
// decode as zero), which is what lets LoadMmap alias int64 slices
// straight into the mapping.
//
//	magic     [8]byte "FBFSIDX1"
//	version   uint32  (= 1)
//	flags     uint32  bit0 = two-sided (directed), bit1 = covered
//	V         uint64  graph vertex count
//	E         uint64  graph edge count
//	L         uint64  landmark count
//	seed      uint64  landmark-selection seed
//	policy    uint32  landmark-selection policy
//	reserved  uint32  (= 0)
//	landmarks L × uint32, zero-padded to 8
//	outOff    (V+1) × int64
//	outLab    No × uint32, zero-padded to 8   (No = outOff[V])
//	inOff     (V+1) × int64    } two-sided files only
//	inLab     Ni × uint32, zero-padded to 8   (Ni = inOff[V])
//	crc       uint32  CRC32 (IEEE) of every byte above
//	fmagic    [8]byte "FBFSCRC1"
//
// Unlike graph files there is no legacy footerless form: the footer is
// mandatory, the declared lengths must match the file size exactly, and
// pad bytes must be zero — Decode(Encode(x)) is byte-identical, so a
// valid file has exactly one representation (the fuzz harness checks
// this canonical-re-encode property).
const idxMagic = "FBFSIDX1"

// idxCRCMagic is the footer magic, shared spelling with graph files.
const idxCRCMagic = "FBFSCRC1"

// idxVersion is the current format version.
const idxVersion = 1

// idxHeaderLen is the fixed prefix through the reserved word.
const idxHeaderLen = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4

// idxFooterLen is the integrity footer: CRC32 + footer magic.
const idxFooterLen = 4 + len(idxCRCMagic)

const (
	flagTwoSided = 1 << 0
	flagCovered  = 1 << 1
)

// ErrCorrupt is the sentinel wrapped by structural decode failures:
// bad magic, impossible lengths, non-canonical padding, truncation.
var ErrCorrupt = errors.New("index: corrupt index file")

// ErrChecksum is the sentinel wrapped by CRC-mismatch failures — the
// payload shape parsed but the bytes are not what was written.
var ErrChecksum = errors.New("index: checksum mismatch")

// maxIndexVertices mirrors graph.MaxVertices: a header declaring more
// is hostile or rotten, not data.
const maxIndexVertices = 1 << 31

// maxLabelEntries bounds a declared label array: 2^40 entries (4 TiB)
// is far past single-node memory.
const maxLabelEntries = 1 << 40

func pad8(n int) int { return (8 - n%8) % 8 }

// EncodedSize returns the exact artifact size in bytes.
func (ix *Index) EncodedSize() int64 {
	sz := int64(idxHeaderLen)
	sz += int64(len(ix.Landmarks))*4 + int64(pad8(len(ix.Landmarks)*4))
	sz += int64(len(ix.OutOff)) * 8
	sz += int64(len(ix.OutLab))*4 + int64(pad8(len(ix.OutLab)*4))
	if ix.twoSided() {
		sz += int64(len(ix.InOff)) * 8
		sz += int64(len(ix.InLab))*4 + int64(pad8(len(ix.InLab)*4))
	}
	return sz + int64(idxFooterLen)
}

func (ix *Index) twoSided() bool { return !ix.Symmetric }

// Encode serializes the index to its canonical byte form.
func (ix *Index) Encode() []byte {
	buf := make([]byte, 0, ix.EncodedSize())
	buf = append(buf, idxMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, idxVersion)
	flags := uint32(0)
	if ix.twoSided() {
		flags |= flagTwoSided
	}
	if ix.Covered {
		flags |= flagCovered
	}
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, ix.GraphV)
	buf = binary.LittleEndian.AppendUint64(buf, ix.GraphE)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ix.Landmarks)))
	buf = binary.LittleEndian.AppendUint64(buf, ix.Seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.Policy))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved

	appendU32s := func(xs []uint32) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, x)
		}
		for i := 0; i < pad8(len(xs)*4); i++ {
			buf = append(buf, 0)
		}
	}
	appendI64s := func(xs []int64) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	}
	appendU32s(ix.Landmarks)
	appendI64s(ix.OutOff)
	appendU32s(ix.OutLab)
	if ix.twoSided() {
		appendI64s(ix.InOff)
		appendU32s(ix.InLab)
	}

	crc := crc32.ChecksumIEEE(buf)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = append(buf, idxCRCMagic...)
	return buf
}

// cursor is a bounds-checked reader over the decode buffer; every
// failure is a typed ErrCorrupt, never a panic — Decode runs on
// attacker-controlled bytes under the fuzzer. With alias set (mmap
// loads on little-endian hosts) the array readers return views over
// the buffer instead of heap copies; the format's 8-aligned section
// layout plus a page-aligned mapping base keeps the views aligned, and
// a misaligned buffer silently degrades to copying.
type cursor struct {
	b     []byte
	off   int
	alias bool
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) || c.off+n < c.off {
		return nil, fmt.Errorf("%w: truncated at offset %d (need %d bytes)", ErrCorrupt, c.off, n)
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p, nil
}

func (c *cursor) u32() (uint32, error) {
	p, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (c *cursor) u64() (uint64, error) {
	p, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// decodeHeader parses and validates the fixed header, returning the
// dimensions needed to lay out the rest of the file.
type idxHeader struct {
	flags  uint32
	v, e   uint64
	l      uint64
	seed   uint64
	policy uint32
}

func (c *cursor) header() (h idxHeader, err error) {
	magic, err := c.take(len(idxMagic))
	if err != nil {
		return h, err
	}
	if string(magic) != idxMagic {
		return h, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	ver, err := c.u32()
	if err != nil {
		return h, err
	}
	if ver != idxVersion {
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	if h.flags, err = c.u32(); err != nil {
		return h, err
	}
	if h.flags&^uint32(flagTwoSided|flagCovered) != 0 {
		return h, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, h.flags)
	}
	if h.v, err = c.u64(); err != nil {
		return h, err
	}
	if h.e, err = c.u64(); err != nil {
		return h, err
	}
	if h.l, err = c.u64(); err != nil {
		return h, err
	}
	if h.seed, err = c.u64(); err != nil {
		return h, err
	}
	if h.policy, err = c.u32(); err != nil {
		return h, err
	}
	reserved, err := c.u32()
	if err != nil {
		return h, err
	}
	if reserved != 0 {
		return h, fmt.Errorf("%w: nonzero reserved word", ErrCorrupt)
	}
	if h.v == 0 || h.v > maxIndexVertices {
		return h, fmt.Errorf("%w: vertex count %d out of range", ErrCorrupt, h.v)
	}
	if h.l > MaxLandmarks {
		return h, fmt.Errorf("%w: landmark count %d exceeds %d", ErrCorrupt, h.l, MaxLandmarks)
	}
	return h, nil
}

func (c *cursor) u32s(n int) ([]uint32, error) {
	p, err := c.take(n * 4)
	if err != nil {
		return nil, err
	}
	var xs []uint32
	if c.alias && n > 0 && uintptr(unsafe.Pointer(&p[0]))%4 == 0 {
		xs = unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), n)
	} else {
		xs = make([]uint32, n)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint32(p[i*4:])
		}
	}
	if err := c.zeroPad(pad8(n * 4)); err != nil {
		return nil, err
	}
	return xs, nil
}

func (c *cursor) i64s(n int) ([]int64, error) {
	p, err := c.take(n * 8)
	if err != nil {
		return nil, err
	}
	var xs []int64
	if c.alias && n > 0 && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		xs = unsafe.Slice((*int64)(unsafe.Pointer(&p[0])), n)
	} else {
		xs = make([]int64, n)
		for i := range xs {
			xs[i] = int64(binary.LittleEndian.Uint64(p[i*8:]))
		}
	}
	return xs, nil
}

func (c *cursor) zeroPad(n int) error {
	p, err := c.take(n)
	if err != nil {
		return err
	}
	for _, b := range p {
		if b != 0 {
			return fmt.Errorf("%w: nonzero pad byte", ErrCorrupt)
		}
	}
	return nil
}

// validOffsets checks an offset array is a well-formed CSR spine:
// starts at 0, non-decreasing, final value bounded.
func validOffsets(off []int64, what string) error {
	if off[0] != 0 {
		return fmt.Errorf("%w: %s offsets start at %d", ErrCorrupt, what, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%w: %s offsets decrease at %d", ErrCorrupt, what, i)
		}
	}
	if off[len(off)-1] > maxLabelEntries {
		return fmt.Errorf("%w: %s label count %d out of range", ErrCorrupt, what, off[len(off)-1])
	}
	return nil
}

// validEntries checks label entries: ranks in range and strictly
// increasing within each vertex (the merge-join precondition), depths
// within the encodable range.
func validEntries(off []int64, lab []uint32, l uint64, what string) error {
	for v := 0; v+1 < len(off); v++ {
		prev := int64(-1)
		for _, e := range lab[off[v]:off[v+1]] {
			rank := int64(e >> 16)
			if rank >= int64(l) {
				return fmt.Errorf("%w: %s label rank %d >= landmark count %d", ErrCorrupt, what, rank, l)
			}
			if rank <= prev {
				return fmt.Errorf("%w: %s labels of vertex %d not rank-sorted", ErrCorrupt, what, v)
			}
			if e&0xFFFF > maxDepth16 {
				return fmt.Errorf("%w: %s label depth out of range at vertex %d", ErrCorrupt, what, v)
			}
			prev = rank
		}
	}
	return nil
}

// Decode parses a complete index artifact. It accepts arbitrary bytes
// without panicking; structural problems return ErrCorrupt, payload
// bit-rot returns ErrChecksum. The returned index owns fresh heap
// slices (use LoadMmap to alias a file instead).
func Decode(data []byte) (*Index, error) {
	return decode(data, false)
}

// decode is Decode with an aliasing switch: alias=true hands the
// returned index views over data (the mmap path) instead of copies —
// validation is identical either way.
func decode(data []byte, alias bool) (*Index, error) {
	if len(data) < idxHeaderLen+idxFooterLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+footer", ErrCorrupt, len(data))
	}
	foot := data[len(data)-idxFooterLen:]
	if string(foot[4:]) != idxCRCMagic {
		return nil, fmt.Errorf("%w: missing footer magic", ErrCorrupt)
	}
	body := data[:len(data)-idxFooterLen]

	c := &cursor{b: body, alias: alias && hostLittleEndian()}
	h, err := c.header()
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Symmetric: h.flags&flagTwoSided == 0,
		Covered:   h.flags&flagCovered != 0,
		Policy:    Policy(h.policy),
		Seed:      h.seed,
		GraphV:    h.v,
		GraphE:    h.e,
	}
	if ix.Landmarks, err = c.u32s(int(h.l)); err != nil {
		return nil, err
	}
	for _, lm := range ix.Landmarks {
		if uint64(lm) >= h.v {
			return nil, fmt.Errorf("%w: landmark %d out of vertex range", ErrCorrupt, lm)
		}
	}
	if ix.OutOff, err = c.i64s(int(h.v) + 1); err != nil {
		return nil, err
	}
	if err := validOffsets(ix.OutOff, "out"); err != nil {
		return nil, err
	}
	if ix.OutLab, err = c.u32s(int(ix.OutOff[h.v])); err != nil {
		return nil, err
	}
	if ix.twoSided() {
		if ix.InOff, err = c.i64s(int(h.v) + 1); err != nil {
			return nil, err
		}
		if err := validOffsets(ix.InOff, "in"); err != nil {
			return nil, err
		}
		if ix.InLab, err = c.u32s(int(ix.InOff[h.v])); err != nil {
			return nil, err
		}
	} else {
		ix.InOff, ix.InLab = ix.OutOff, ix.OutLab
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-c.off)
	}

	// Structure parsed; now the bytes must be the bytes that were
	// written. CRC last so a torn tail reads as corruption above, and a
	// bit flip inside the arrays reads as a checksum failure here.
	want := binary.LittleEndian.Uint32(foot[:4])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: payload crc %#x, footer %#x", ErrChecksum, got, want)
	}
	if err := validEntries(ix.OutOff, ix.OutLab, h.l, "out"); err != nil {
		return nil, err
	}
	if ix.twoSided() {
		if err := validEntries(ix.InOff, ix.InLab, h.l, "in"); err != nil {
			return nil, err
		}
	}
	ix.buildRank()
	return ix, nil
}

// Save writes the artifact atomically (durable.WriteFile: temp file,
// fsync, rename, directory fsync). A crash mid-save leaves at worst a
// .tmp orphan, never a torn file under the final name — the invariant
// the manifest journal relies on when it records a build as durable.
func (ix *Index) Save(path string) error {
	if err := durable.WriteFile(path, ix.Encode()); err != nil {
		return fmt.Errorf("index: saving artifact: %w", err)
	}
	return nil
}

// Load reads and decodes an artifact into heap memory.
func Load(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
