// Package bitmap implements the paper's VIS structures: the auxiliary
// "visited" arrays that filter main-memory accesses to the depth/parent
// array, in every variant compared in Figure 4.
//
//   - Bitmap: one bit per vertex, updated with plain (non LOCK-prefixed)
//     loads and stores — the paper's atomic-free scheme. A concurrent
//     store may drop a sibling bit within the same word; callers repair
//     this benign race by re-checking the DP entry (paper §III-A).
//   - AtomicBitmap: one bit per vertex updated with Compare-And-Swap —
//     the Agarwal et al. baseline the paper compares against.
//   - ByteMap: one byte per vertex with plain stores. Byte stores cannot
//     clobber neighbors, but the structure is 8x larger (footnote 2 of
//     the paper: usable when |V| <= |C|).
//
// Partition arithmetic for the cache-resident partitioned variant
// (N_VIS) lives in Partitions.
package bitmap

import "sync/atomic"

// VIS is the operation set the traversal engine needs from a visited
// structure. TrySet marks v visited and reports whether the caller may
// proceed to the DP check: implementations return false only when the
// vertex was definitely already visited.
type VIS interface {
	// TrySet marks v. The return value is false if v was definitely
	// visited before this call; true means the caller must verify
	// against DP (the atomic-free variants can return true for a vertex
	// that a racing thread is concurrently visiting).
	TrySet(v uint32) bool
	// Reset clears all bits for a new traversal.
	Reset()
	// SizeBytes reports the memory footprint, which drives the
	// cache-partitioning decision.
	SizeBytes() int64
}

// Bitmap is the atomic-free bit-per-vertex VIS. Loads and stores use
// sync/atomic Load/Store on 32-bit words. On x86-64 a Load is a plain MOV
// but a Store is an XCHG, a full fence the paper's unlocked store does
// not pay. Neither is a read-modify-write, so the race detector stays
// silent and the algorithm's benign lost-update window within a word is
// preserved.
type Bitmap struct {
	words []uint32
}

// NewBitmap returns a Bitmap covering n vertices.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint32, (n+31)/32)}
}

// TrySet implements VIS with the paper's Figure 2(b) protocol.
func (b *Bitmap) TrySet(v uint32) bool {
	w := v >> 5
	bit := uint32(1) << (v & 31)
	old := atomic.LoadUint32(&b.words[w])
	if old&bit != 0 {
		return false // definitely visited
	}
	// Plain store: may drop a bit a racing thread set in the same word
	// (the paper's scenario (2)); the DP guard repairs it.
	atomic.StoreUint32(&b.words[w], old|bit)
	return true
}

// Get reports whether v's bit is set. A false result may be stale under
// concurrency (benign, per the VIS protocol).
func (b *Bitmap) Get(v uint32) bool {
	return atomic.LoadUint32(&b.words[v>>5])&(1<<(v&31)) != 0
}

// Reset clears the bitmap.
func (b *Bitmap) Reset() { clearWords(b.words) }

// SizeBytes implements VIS.
func (b *Bitmap) SizeBytes() int64 { return int64(len(b.words)) * 4 }

// Words exposes the raw word array for bulk operations that manage
// their own synchronization: the bottom-up kernel reads frontier words
// directly in its inner loop and writes next-frontier words it owns
// exclusively (worker vertex ranges are word-aligned).
func (b *Bitmap) Words() []uint32 { return b.words }

// Or sets v's bit with a CAS loop, safe against concurrent Or calls on
// the same word. It is the frontier→bitmap conversion primitive: the
// per-worker next-frontier arrays hold arbitrary vertex ids, so two
// workers can land in one word. (TrySet's plain store is NOT safe here —
// a dropped frontier bit would lose a vertex, not just duplicate work.)
func (b *Bitmap) Or(v uint32) {
	w := &b.words[v>>5]
	bit := uint32(1) << (v & 31)
	for {
		old := atomic.LoadUint32(w)
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint32(w, old, old|bit) {
			return
		}
	}
}

// ClearWords zeroes the word range [lo, hi) — the per-worker share of a
// bulk clear (each worker clears only words it owns).
func (b *Bitmap) ClearWords(lo, hi int) {
	w := b.words[lo:hi]
	for i := range w {
		w[i] = 0
	}
}

// NumWords returns the length of the word array (32 vertices per word).
func (b *Bitmap) NumWords() int { return len(b.words) }

// AtomicBitmap is the CAS-based bit-per-vertex VIS used as the
// atomic-operations baseline (Figure 4's "A. Vis" series). TrySet is
// exact: it returns true for exactly one caller per vertex.
type AtomicBitmap struct {
	words []uint32
}

// NewAtomicBitmap returns an AtomicBitmap covering n vertices.
func NewAtomicBitmap(n int) *AtomicBitmap {
	return &AtomicBitmap{words: make([]uint32, (n+31)/32)}
}

// TrySet sets v's bit with a CAS loop (LOCK CMPXCHG on x86) and reports
// whether this call was the one that set it.
func (a *AtomicBitmap) TrySet(v uint32) bool {
	w := v >> 5
	bit := uint32(1) << (v & 31)
	for {
		old := atomic.LoadUint32(&a.words[w])
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(&a.words[w], old, old|bit) {
			return true
		}
	}
}

// Get reports whether v's bit is set.
func (a *AtomicBitmap) Get(v uint32) bool {
	return atomic.LoadUint32(&a.words[v>>5])&(1<<(v&31)) != 0
}

// Reset clears the bitmap.
func (a *AtomicBitmap) Reset() { clearWords(a.words) }

// SizeBytes implements VIS.
func (a *AtomicBitmap) SizeBytes() int64 { return int64(len(a.words)) * 4 }

// ByteMap is the byte-per-vertex atomic-free VIS (paper footnote 2).
// Byte-granularity stores are architecturally atomic, so no sibling bits
// can be lost; the only race is two threads claiming the same vertex,
// repaired by the DP guard as usual.
type ByteMap struct {
	bytes []uint32 // packed 4 flags per word to keep atomic ops available
}

// NewByteMap returns a ByteMap covering n vertices.
func NewByteMap(n int) *ByteMap {
	return &ByteMap{bytes: make([]uint32, (n+3)/4)}
}

// TrySet implements VIS with one byte per vertex.
func (m *ByteMap) TrySet(v uint32) bool {
	w := v >> 2
	shift := (v & 3) * 8
	old := atomic.LoadUint32(&m.bytes[w])
	if old&(0xff<<shift) != 0 {
		return false
	}
	atomic.StoreUint32(&m.bytes[w], old|(1<<shift))
	return true
}

// Get reports whether v's byte is set.
func (m *ByteMap) Get(v uint32) bool {
	return atomic.LoadUint32(&m.bytes[v>>2])&(0xff<<((v&3)*8)) != 0
}

// Reset clears the map.
func (m *ByteMap) Reset() { clearWords(m.bytes) }

// SizeBytes implements VIS.
func (m *ByteMap) SizeBytes() int64 { return int64(len(m.bytes)) * 4 }

func clearWords(w []uint32) {
	for i := range w {
		w[i] = 0
	}
}

// Partitions returns N_VIS, the number of vertex-range partitions needed
// for the bit-structure of numVertices vertices to stay resident in a
// last-level cache of llcBytes while leaving half the cache for the other
// structures: N_VIS = ceil(|V| / (4*|C|)), at least 1 (paper §III-A).
func Partitions(numVertices int, llcBytes int64) int {
	if llcBytes <= 0 {
		return 1
	}
	visBytes := (int64(numVertices) + 7) / 8
	half := llcBytes / 2
	if half == 0 {
		half = 1
	}
	n := int((visBytes + half - 1) / half)
	if n < 1 {
		n = 1
	}
	return n
}

// NextPow2 returns the smallest power of two >= x (x >= 1).
func NextPow2(x int) int {
	if x < 1 {
		return 1
	}
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}

// Log2 returns floor(log2(x)) for x >= 1.
func Log2(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}
