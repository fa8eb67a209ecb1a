package bitmap

import "testing"

// The VIS probe/update is the per-edge inner operation of Phase-II; the
// paper's Figure 2 contrast (atomic vs atomic-free) in microcosm.

func benchTrySet(b *testing.B, v vis) {
	const n = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.TrySet(uint32(i) & (n - 1))
	}
}

func BenchmarkVISUpdateBitmap(b *testing.B) { benchTrySet(b, NewBitmap(1<<20)) }

func BenchmarkVISUpdateAtomic(b *testing.B) { benchTrySet(b, NewAtomicBitmap(1<<20)) }

func BenchmarkVISUpdateByte(b *testing.B) { benchTrySet(b, NewByteMap(1<<20)) }

func BenchmarkVISReset(b *testing.B) {
	v := NewBitmap(1 << 20)
	b.SetBytes(1 << 17) // |V|/8 bytes cleared per op
	for i := 0; i < b.N; i++ {
		v.Reset()
	}
}
