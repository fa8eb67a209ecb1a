package bitmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// vis is the operation set every visited structure offers the engine.
type vis interface {
	TrySet(v uint32) bool
	Reset()
}

// Get reports whether v's bit is set.
func (b *Bitmap) Get(v uint32) bool { return load(&b.words[v>>5])&(1<<(v&31)) != 0 }

// Get reports whether v's bit is set.
func (a *AtomicBitmap) Get(v uint32) bool {
	return atomic.LoadUint32(&a.words[v>>5])&(1<<(v&31)) != 0
}

// Get reports whether v's byte is set.
func (m *ByteMap) Get(v uint32) bool { return load(&m.bytes[v>>2])&(0xff<<((v&3)*8)) != 0 }

func kinds(n int) map[string]vis {
	return map[string]vis{
		"bitmap": NewBitmap(n),
		"atomic": NewAtomicBitmap(n),
		"byte":   NewByteMap(n),
	}
}

func TestTrySetSerial(t *testing.T) {
	const n = 1000
	for name, v := range kinds(n) {
		for i := uint32(0); i < n; i++ {
			if !v.TrySet(i) {
				t.Fatalf("%s: first TrySet(%d) = false", name, i)
			}
		}
		for i := uint32(0); i < n; i++ {
			if v.TrySet(i) {
				t.Fatalf("%s: second TrySet(%d) = true", name, i)
			}
		}
	}
}

func TestReset(t *testing.T) {
	const n = 257
	for name, v := range kinds(n) {
		for i := uint32(0); i < n; i++ {
			v.TrySet(i)
		}
		v.Reset()
		for i := uint32(0); i < n; i++ {
			if !v.TrySet(i) {
				t.Fatalf("%s: TrySet(%d) false after Reset", name, i)
			}
		}
	}
}

func TestGetMatchesTrySet(t *testing.T) {
	b := NewBitmap(500)
	a := NewAtomicBitmap(500)
	m := NewByteMap(500)
	for i := uint32(0); i < 500; i += 3 {
		b.TrySet(i)
		a.TrySet(i)
		m.TrySet(i)
	}
	for i := uint32(0); i < 500; i++ {
		want := i%3 == 0
		if b.Get(i) != want {
			t.Fatalf("Bitmap.Get(%d) = %v", i, !want)
		}
		if a.Get(i) != want {
			t.Fatalf("AtomicBitmap.Get(%d) = %v", i, !want)
		}
		if m.Get(i) != want {
			t.Fatalf("ByteMap.Get(%d) = %v", i, !want)
		}
	}
}

// TestAtomicExactlyOnce: the CAS bitmap must admit exactly one winner
// per vertex under contention.
func TestAtomicExactlyOnce(t *testing.T) {
	const n, goroutines = 4096, 8
	a := NewAtomicBitmap(n)
	wins := make([]int32, n)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); i < n; i++ {
				if a.TrySet(i) {
					// Winner; count without atomics is fine since only
					// one goroutine can win per index.
					wins[i]++
				}
			}
		}()
	}
	wg.Wait()
	for i, w := range wins {
		if w != 1 {
			t.Fatalf("vertex %d won %d times", i, w)
		}
	}
}

// TestBitmapEventuallySet: the atomic-free bitmap may admit several
// "winners" (that is the benign race), but after concurrent setting every
// touched bit must read back set — a bit can never be lost once all
// writers to its word have finished and each write happened-after the
// reads that justified it in a serial sense. We verify the single-writer
// case per word with concurrent writers on different words.
func TestBitmapDisjointWordsConcurrent(t *testing.T) {
	const n = 32 * 64
	b := NewBitmap(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns whole words: no lost updates possible.
			for w := g; w < 64; w += 8 {
				for bit := 0; bit < 32; bit++ {
					b.TrySet(uint32(w*32 + bit))
				}
			}
		}(g)
	}
	wg.Wait()
	for i := uint32(0); i < n; i++ {
		if !b.Get(i) {
			t.Fatalf("bit %d lost despite disjoint words", i)
		}
	}
}

func TestPartitions(t *testing.T) {
	cases := []struct {
		vertices int
		llc      int64
		want     int
	}{
		{1 << 10, 8 << 20, 1},
		{256 << 20, 16 << 20, 4}, // the paper's worked example (§III-A)
		{256 << 20, 8 << 20, 8},  // our Nehalem LLC
		{64 << 20, 8 << 20, 2},   // bit array 8 MB vs half-LLC 4 MB
		{16 << 20, 8 << 20, 1},   // 2 MB VIS fits half of 8 MB LLC
		{1, 8 << 20, 1},          // degenerate
		{1 << 20, 0, 1},          // no cache info: single partition
	}
	for _, c := range cases {
		if got := Partitions(c.vertices, c.llc); got != c.want {
			t.Errorf("Partitions(%d, %d) = %d, want %d", c.vertices, c.llc, got, c.want)
		}
	}
}

func TestPartitionsProperty(t *testing.T) {
	f := func(v32 uint32, llcMB uint8) bool {
		v := int(v32%(1<<28)) + 1
		llc := (int64(llcMB%64) + 1) << 20
		n := Partitions(v, llc)
		if n < 1 {
			return false
		}
		// Each partition's VIS slice must fit in half the LLC.
		perPart := (int64(v)/8 + int64(n) - 1) / int64(n)
		return perPart <= llc/2+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 1025: 10}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}
