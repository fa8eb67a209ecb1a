package frontier

import (
	"sort"
	"testing"
	"testing/quick"

	"fastbfs/internal/par"
)

func TestFrontierTotals(t *testing.T) {
	f := New(3)
	f.Arrays[0] = append(f.Arrays[0], 1, 2)
	f.Arrays[2] = append(f.Arrays[2], 3)
	if f.Total() != 3 {
		t.Fatalf("Total = %d, want 3", f.Total())
	}
	f.Reset()
	if f.Total() != 0 {
		t.Fatalf("Total after Reset = %d", f.Total())
	}
}

func TestLayoutSliceCoverage(t *testing.T) {
	f := New(4)
	f.Arrays[0] = []uint32{1, 2, 3}
	f.Arrays[1] = nil
	f.Arrays[2] = []uint32{4}
	f.Arrays[3] = []uint32{5, 6}
	var l Layout
	l.Build(f)
	if l.Total() != 6 {
		t.Fatalf("Total = %d", l.Total())
	}
	for _, shares := range []int{1, 2, 3, 6, 10} {
		var got []uint32
		var segs []Segment
		for s := 0; s < shares; s++ {
			lo, hi := par.Range64(l.Total(), s, shares)
			segs = l.Slice(lo, hi, segs[:0])
			for _, sg := range segs {
				got = append(got, f.Arrays[sg.Worker][sg.Lo:sg.Hi]...)
			}
		}
		if len(got) != 6 {
			t.Fatalf("shares=%d: covered %d of 6", shares, len(got))
		}
		for i, v := range got {
			if v != uint32(i+1) {
				t.Fatalf("shares=%d: order broken at %d: %v", shares, i, got)
			}
		}
	}
}

func TestLayoutStart(t *testing.T) {
	f := New(2)
	f.Arrays[0] = []uint32{9, 9}
	f.Arrays[1] = []uint32{9}
	var l Layout
	l.Build(f)
	if l.Start(0) != 0 || l.Start(1) != 2 || l.Start(2) != 3 {
		t.Errorf("Start values wrong: %d %d %d", l.Start(0), l.Start(1), l.Start(2))
	}
}

func TestRegionShift(t *testing.T) {
	// 1M vertices, 64 MB adjacency, 4 KiB pages, 64-entry TLB:
	// 16384 pages / 64 = 256 regions => span 4096 vertices => shift 12.
	shift, regions := RegionShift(1<<20, 64<<20, 4096, 64)
	if shift != 12 {
		t.Errorf("shift = %d, want 12", shift)
	}
	if regions != 256 {
		t.Errorf("regions = %d, want 256", regions)
	}
	// Degenerate inputs fall back to one region.
	if _, r := RegionShift(0, 0, 0, 0); r != 1 {
		t.Errorf("degenerate regions = %d, want 1", r)
	}
	// Tiny adjacency: single region.
	if _, r := RegionShift(100, 100, 4096, 64); r != 1 {
		t.Errorf("tiny adjacency regions = %d, want 1", r)
	}
}

func TestRearrangeGroupsByRegion(t *testing.T) {
	r := NewRearranger(4, 16) // region = v >> 4
	bv := []uint32{200, 5, 100, 6, 201, 7, 101}
	r.Rearrange(bv)
	// All region-0 (5,6,7), then region-6 (100,101), then region-12
	// (200,201), stable within regions.
	want := []uint32{5, 6, 7, 100, 101, 200, 201}
	for i := range want {
		if bv[i] != want[i] {
			t.Fatalf("got %v, want %v", bv, want)
		}
	}
}

// TestRearrangePermutationProperty: rearrangement is a permutation that
// sorts by region and is stable within regions.
func TestRearrangePermutationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		bv := make([]uint32, len(raw))
		for i, x := range raw {
			bv[i] = uint32(x)
		}
		orig := append([]uint32(nil), bv...)
		r := NewRearranger(8, 1<<8)
		r.Rearrange(bv)
		// Permutation: same multiset.
		a := append([]uint32(nil), orig...)
		b := append([]uint32(nil), bv...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Region-sorted.
		for i := 1; i < len(bv); i++ {
			if bv[i]>>8 < bv[i-1]>>8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRearrangeReuse(t *testing.T) {
	r := NewRearranger(2, 64)
	for round := 0; round < 5; round++ {
		bv := []uint32{60, 1, 30, 2, 61, 3}
		r.Rearrange(bv)
		for i := 1; i < len(bv); i++ {
			if bv[i]>>2 < bv[i-1]>>2 {
				t.Fatalf("round %d: not region-sorted: %v", round, bv)
			}
		}
	}
}

func TestRearrangeSmall(t *testing.T) {
	r := NewRearranger(4, 16)
	r.Rearrange(nil)           // no-op
	r.Rearrange([]uint32{42})  // no-op
	one := NewRearranger(0, 1) // single region
	bv := []uint32{3, 1, 2}
	one.Rearrange(bv)
	if bv[0] != 3 || bv[1] != 1 || bv[2] != 2 {
		t.Errorf("single-region rearrange must be identity, got %v", bv)
	}
}
