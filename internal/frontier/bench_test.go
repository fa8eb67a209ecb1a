package frontier

import (
	"testing"

	"fastbfs/internal/xrand"
)

// BenchmarkRearrange measures the paper's §III-B3(b) histogram
// rearrangement on a random 256K-vertex frontier with 256 TLB regions.
func BenchmarkRearrange(b *testing.B) {
	g := xrand.New(1)
	bv := make([]uint32, 1<<18)
	orig := make([]uint32, len(bv))
	for i := range orig {
		orig[i] = uint32(g.Uint64()>>32) & (1<<20 - 1)
	}
	r := NewRearranger(12, 256)
	b.SetBytes(int64(len(bv)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(bv, orig)
		r.Rearrange(bv)
	}
}

// BenchmarkLayoutSlice measures frontier division bookkeeping.
func BenchmarkLayoutSlice(b *testing.B) {
	f := New(16)
	for w := range f.Arrays {
		f.Arrays[w] = make([]uint32, 1000+w*100)
	}
	var l Layout
	l.Build(f)
	var segs []Segment
	for i := 0; i < b.N; i++ {
		lo := int64(i % 1000)
		segs = l.Slice(lo, lo+5000, segs[:0])
	}
	_ = segs
}
