// Package bitmap implements the paper's VIS structures: the auxiliary
// "visited" arrays that filter main-memory accesses to the depth/parent
// array, in every variant compared in Figure 4.
//
//   - Bitmap: one bit per vertex, updated with plain (non LOCK-prefixed)
//     loads and stores — the paper's atomic-free scheme (sync/atomic
//     ones under the race detector, see access.go). A concurrent
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

// Bitmap is the atomic-free bit-per-vertex VIS. TrySet uses plain
// 32-bit word loads and stores (a MOV each on x86-64; sync/atomic
// Load/Store under the race detector, whose Store is an XCHG fence).
// Neither is a read-modify-write, so the algorithm's benign lost-update
// window within a word is the paper's.
type Bitmap struct {
	words []uint32
}

// NewBitmap returns a Bitmap covering n vertices.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint32, (n+31)/32)}
}

// TrySet marks v and reports false only when v was definitely visited
// before; true means the caller must verify against DP (a racing thread
// may be visiting v too). It is the paper's Figure 2(b) protocol.
func (b *Bitmap) TrySet(v uint32) bool { return TrySetIn(b.words, v) }

// TrySetIn is Bitmap.TrySet on the bitmap's word array (Words), for a
// kernel that hoists the array out of its loop; it inlines.
func TrySetIn(words []uint32, v uint32) bool {
	w := &words[v>>5]
	bit := uint32(1) << (v & 31)
	old := load(w)
	if old&bit != 0 {
		return false // definitely visited
	}
	// Plain store: may drop a bit a racing thread set in the same word
	// (the paper's scenario (2)); the DP guard repairs it.
	store(w, old|bit)
	return true
}

// Reset clears the bitmap.
func (b *Bitmap) Reset() { clearWords(b.words) }

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

// Reset clears the bitmap.
func (a *AtomicBitmap) Reset() { clearWords(a.words) }

// ByteMap is the byte-per-vertex atomic-free VIS (paper footnote 2),
// with Bitmap's plain word accesses. The flags are packed four to a
// 32-bit word, so a racing word store can drop a sibling's flag as in
// Bitmap; the DP guard repairs it, and also the race of two threads
// claiming the same vertex.
type ByteMap struct {
	bytes []uint32 // packed 4 flags per word
}

// NewByteMap returns a ByteMap covering n vertices.
func NewByteMap(n int) *ByteMap {
	return &ByteMap{bytes: make([]uint32, (n+3)/4)}
}

// TrySet is Bitmap.TrySet with one byte per vertex.
func (m *ByteMap) TrySet(v uint32) bool {
	w := v >> 2
	shift := (v & 3) * 8
	old := load(&m.bytes[w])
	if old&(0xff<<shift) != 0 {
		return false
	}
	store(&m.bytes[w], old|(1<<shift))
	return true
}

// Reset clears the map.
func (m *ByteMap) Reset() { clearWords(m.bytes) }

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
