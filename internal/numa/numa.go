// Package numa models the multi-socket topology the paper's algorithm is
// designed around. Go offers no thread pinning or NUMA-aware allocation,
// so the topology here is *simulated*: a fixed pool of workers is
// partitioned into socket groups, every major data structure has a
// "home socket" map identical to the paper's
//
//	Socket_Id(v) = v >> log2(|V_NS|),  |V_NS| = 2^ceil(log2(|V|/N_S)),
//
// and an accounting layer charges each access class to the socket that
// homes it. The measured per-socket shares become the α parameters of the
// analytical model (Eqns IV.3/IV.4), which carries the multi-socket
// performance shape on hosts without real multi-socket hardware.
package numa

import "fmt"

// Topology describes the simulated machine: how many sockets and how the
// worker pool maps onto them.
type Topology struct {
	Sockets int // number of sockets (power of two)
	Workers int // total workers; divided contiguously across sockets
	// vnsShift is log2(|V_NS|): the home socket of vertex v is
	// v >> vnsShift.
	vnsShift uint
	numV     int
}

// NewTopology builds a topology for numVertices vertices. sockets must be
// a power of two >= 1 and workers >= sockets.
func NewTopology(numVertices, sockets, workers int) (*Topology, error) {
	if sockets < 1 || sockets&(sockets-1) != 0 {
		return nil, fmt.Errorf("numa: sockets must be a power of two, got %d", sockets)
	}
	if workers < sockets {
		return nil, fmt.Errorf("numa: workers (%d) < sockets (%d)", workers, sockets)
	}
	if numVertices < 1 {
		return nil, fmt.Errorf("numa: no vertices")
	}
	// |V_NS| = 2^ceil(log2(|V|/N_S)) (paper §III-C(1)).
	per := (numVertices + sockets - 1) / sockets
	shift := uint(0)
	for (1 << shift) < per {
		shift++
	}
	return &Topology{Sockets: sockets, Workers: workers, vnsShift: shift, numV: numVertices}, nil
}

// VNSShift returns log2(|V_NS|).
func (t *Topology) VNSShift() uint { return t.vnsShift }

// HomeSocket returns the socket owning vertex v's slice of Adj, DP and
// VIS.
func (t *Topology) HomeSocket(v uint32) int {
	s := int(v >> t.vnsShift)
	if s >= t.Sockets {
		s = t.Sockets - 1
	}
	return s
}

// SocketOf returns the socket a worker belongs to. Workers are divided
// into contiguous balanced blocks (sizes differ by at most one), so
// every socket owns at least one worker whenever Workers >= Sockets —
// an engine invariant: a worker-less socket would leave its statically
// assigned bins unprocessed.
func (t *Topology) SocketOf(worker int) int {
	q, r := t.Workers/t.Sockets, t.Workers%t.Sockets
	if worker < r*(q+1) {
		return worker / (q + 1)
	}
	return r + (worker-r*(q+1))/q
}

// WorkersOf returns the half-open worker range [lo, hi) of a socket.
func (t *Topology) WorkersOf(socket int) (lo, hi int) {
	q, r := t.Workers/t.Sockets, t.Workers%t.Sockets
	lo = socket*q + min(socket, r)
	hi = lo + q
	if socket < r {
		hi++
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Structure identifies an access class for traffic accounting; the
// classes match the α terms of the analytical model.
type Structure int

// Access classes, one per α term of the model.
const (
	StructAdj Structure = iota // adjacency array reads
	StructBV                   // boundary-vertex array traffic
	StructPBV                  // potential-boundary-vertex bin traffic
	StructDP                   // depth/parent updates
	StructVIS                  // visited-structure traffic
	numStructures
)

// String names the structure.
func (s Structure) String() string {
	switch s {
	case StructAdj:
		return "Adj"
	case StructBV:
		return "BV"
	case StructPBV:
		return "PBV"
	case StructDP:
		return "DP"
	case StructVIS:
		return "VIS"
	}
	return "?"
}

// Traffic accumulates bytes per (structure, home socket). It is written
// by one goroutine at a time (the engine aggregates per-worker counts
// between barriers), so it needs no synchronization of its own.
type Traffic struct {
	sockets int
	// bySocket[s][st] = bytes of structure st whose home is socket s.
	bySocket [][numStructures]int64
}

// NewTraffic returns a Traffic accountant for the given socket count.
func NewTraffic(sockets int) *Traffic {
	return &Traffic{sockets: sockets, bySocket: make([][numStructures]int64, sockets)}
}

// Add charges bytes of structure st homed on homeSocket.
func (tr *Traffic) Add(st Structure, homeSocket int, bytes int64) {
	tr.bySocket[homeSocket][st] += bytes
}

// Merge adds other into tr.
func (tr *Traffic) Merge(other *Traffic) {
	for s := range other.bySocket {
		for st := 0; st < int(numStructures); st++ {
			tr.bySocket[s][st] += other.bySocket[s][st]
		}
	}
}

// Reset zeroes the accountant.
func (tr *Traffic) Reset() {
	for s := range tr.bySocket {
		tr.bySocket[s] = [numStructures]int64{}
	}
}

// Total returns total bytes charged to structure st.
func (tr *Traffic) Total(st Structure) int64 {
	var t int64
	for s := range tr.bySocket {
		t += tr.bySocket[s][st]
	}
	return t
}

// Alpha returns the model's α for structure st: the maximum over sockets
// of the fraction of st's bytes homed on that socket. With perfectly
// even access it equals 1/N_S; 1.0 means one socket serves everything.
func (tr *Traffic) Alpha(st Structure) float64 {
	var total, max int64
	for s := range tr.bySocket {
		b := tr.bySocket[s][st]
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 1 / float64(tr.sockets)
	}
	return float64(max) / float64(total)
}

// Structures lists all access classes, for iteration in reports.
func Structures() []Structure {
	return []Structure{StructAdj, StructBV, StructPBV, StructDP, StructVIS}
}
