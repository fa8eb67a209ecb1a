package numa

import (
	"testing"
	"testing/quick"
)

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(100, 3, 4); err == nil {
		t.Error("non-power-of-two sockets accepted")
	}
	if _, err := NewTopology(100, 4, 2); err == nil {
		t.Error("workers < sockets accepted")
	}
	if _, err := NewTopology(0, 1, 1); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestHomeSocketCoversAllSockets(t *testing.T) {
	for _, sockets := range []int{1, 2, 4} {
		for _, n := range []int{1, 7, 64, 1000, 1 << 20} {
			topo, err := NewTopology(n, sockets, sockets*2)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			step := n/64 + 1
			for v := 0; v < n; v += step {
				s := topo.HomeSocket(uint32(v))
				if s < 0 || s >= sockets {
					t.Fatalf("HomeSocket(%d) = %d with %d sockets", v, s, sockets)
				}
				seen[s] = true
			}
			// The first vertex is always on socket 0; the last on the
			// last non-empty socket.
			if !seen[0] {
				t.Errorf("socket 0 owns nothing (n=%d sockets=%d)", n, sockets)
			}
		}
	}
}

// TestHomeSocketBalance: with |V_NS| rounded to a power of two, the
// socket ranges are contiguous, ordered, and the paper's shift formula
// holds: Socket_Id(v) = v >> log2(|V_NS|).
func TestHomeSocketContiguous(t *testing.T) {
	topo, err := NewTopology(1000, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for v := 0; v < 1000; v++ {
		s := topo.HomeSocket(uint32(v))
		if s < prev {
			t.Fatalf("socket map not monotone at %d", v)
		}
		if s != prev && s != prev+1 {
			t.Fatalf("socket map jumps at %d: %d -> %d", v, prev, s)
		}
		prev = s
		if want := v >> topo.VNSShift(); want < 4 && s != want {
			t.Fatalf("HomeSocket(%d) = %d, shift formula gives %d", v, s, want)
		}
	}
}

func TestSocketOfWorkers(t *testing.T) {
	topo, err := NewTopology(100, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		want := 0
		if w >= 4 {
			want = 1
		}
		if got := topo.SocketOf(w); got != want {
			t.Errorf("SocketOf(%d) = %d, want %d", w, got, want)
		}
	}
	lo, hi := topo.WorkersOf(0)
	if lo != 0 || hi != 4 {
		t.Errorf("WorkersOf(0) = [%d,%d), want [0,4)", lo, hi)
	}
	lo, hi = topo.WorkersOf(1)
	if lo != 4 || hi != 8 {
		t.Errorf("WorkersOf(1) = [%d,%d), want [4,8)", lo, hi)
	}
}

// TestWorkersPartition: WorkersOf ranges tile [0, Workers) for any
// worker/socket combination.
func TestWorkersPartition(t *testing.T) {
	f := func(w8, s8 uint8) bool {
		sockets := 1 << (s8 % 3)
		workers := int(w8%32) + sockets
		topo, err := NewTopology(1000, sockets, workers)
		if err != nil {
			return false
		}
		pos := 0
		for s := 0; s < sockets; s++ {
			lo, hi := topo.WorkersOf(s)
			if lo != pos || hi < lo {
				return false
			}
			for w := lo; w < hi; w++ {
				if topo.SocketOf(w) != s {
					return false
				}
			}
			pos = hi
		}
		return pos == workers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	tr := NewTraffic(2)
	tr.Add(StructAdj, 0, 100)
	tr.Add(StructAdj, 1, 50)
	tr.Add(StructDP, 1, 10)
	if tr.Total(StructAdj) != 150 {
		t.Errorf("Total(Adj) = %d", tr.Total(StructAdj))
	}
	// α: socket 0 served 100 of 150 Adj bytes.
	if got := tr.Alpha(StructAdj); got != 100.0/150 {
		t.Errorf("Alpha(Adj) = %v, want 2/3", got)
	}
	// Unused structure: balanced default.
	if got := tr.Alpha(StructPBV); got != 0.5 {
		t.Errorf("Alpha(PBV) = %v, want 0.5", got)
	}
}

func TestTrafficMergeReset(t *testing.T) {
	a, b := NewTraffic(2), NewTraffic(2)
	a.Add(StructVIS, 0, 5)
	b.Add(StructVIS, 1, 7)
	a.Merge(b)
	if a.Total(StructVIS) != 12 {
		t.Errorf("merged total = %d", a.Total(StructVIS))
	}
	if got := a.Alpha(StructVIS); got != 7.0/12 {
		t.Errorf("merged Alpha(VIS) = %v, want 7/12", got)
	}
	a.Reset()
	if a.Total(StructVIS) != 0 || a.Alpha(StructVIS) != 0.5 {
		t.Error("Reset incomplete")
	}
}

func TestStructureNames(t *testing.T) {
	for _, s := range Structures() {
		if s.String() == "?" {
			t.Errorf("structure %d has no name", s)
		}
	}
}

// TestNoEmptySockets is the regression for the ceil-block bug: worker
// counts like 5 or 6 on 4 sockets must still give every socket at least
// one worker (an empty socket would orphan its bins under the static
// scheme).
func TestNoEmptySockets(t *testing.T) {
	for sockets := 1; sockets <= 8; sockets *= 2 {
		for workers := sockets; workers <= 4*sockets+1; workers++ {
			topo, err := NewTopology(1000, sockets, workers)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < sockets; s++ {
				lo, hi := topo.WorkersOf(s)
				if hi <= lo {
					t.Fatalf("sockets=%d workers=%d: socket %d has no workers [%d,%d)",
						sockets, workers, s, lo, hi)
				}
			}
		}
	}
}
