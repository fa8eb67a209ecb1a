package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between distinct seeds", same)
	}
}

func TestUint64nProperty(t *testing.T) {
	g := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := g.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	g := New(5)
	for i := 0; i < 10000; i++ {
		v := g.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	g := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[g.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(13)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(17)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := g.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if int(v) >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation", n)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(19)
	z := NewZipf(g, 100, 1.2)
	var counts [100]int
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	if counts[0] <= counts[1] {
		t.Errorf("Zipf head not dominant: %d vs %d", counts[0], counts[1])
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Flipping one input bit should change ~half the output bits.
	base := SplitMix64(12345)
	totalFlips := 0
	for b := 0; b < 64; b++ {
		d := base ^ SplitMix64(12345^(1<<b))
		n := 0
		for x := d; x != 0; x &= x - 1 {
			n++
		}
		totalFlips += n
	}
	avg := float64(totalFlips) / 64
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average %.1f bits, want ~32", avg)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	g := New(0)
	if g.Uint64() == 0 && g.Uint64() == 0 {
		t.Error("zero seed produced degenerate stream")
	}
}
