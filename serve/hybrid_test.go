package serve

import (
	"testing"

	"fastbfs/bfs"
)

// TestHybridServiceMatchesSerial drives a hybrid-configured service
// through both paths — pooled hybrid engines (the two singles held open
// while the rest queue) and one direction-optimizing sweep — and checks
// every response against the serial reference. The graph is directed, so
// the shared transpose cache is exercised by both paths.
func TestHybridServiceMatchesSerial(t *testing.T) {
	g := testGraph(t)
	opts := bfs.Default(1)
	opts.Hybrid = true
	gate := newRunGate(2)
	s := newGatedService(t, gate, Config{BatchThreshold: 2, Options: &opts})
	const clients = 48
	sources := make([]uint32, clients)
	for c := range sources {
		sources[c] = uint32((c * 211) % g.NumVertices())
	}
	for c, o := range sweepBehindSlots(t, s, gate, sources) {
		if o.err != nil {
			t.Fatalf("client %d: %v", c, o.err)
		}
		want := serialDepths(t, g, sources[c])
		for v := range want {
			if o.resp.Depths[v] != want[v] {
				t.Fatalf("client %d: hybrid depth mismatch at vertex %d", c, v)
			}
		}
	}
	if st := s.Stats(); st.Sweeps != 1 || st.EngineRuns != 2 {
		t.Fatalf("sweeps %d, engine runs %d under hybrid load; want 1 and 2", st.Sweeps, st.EngineRuns)
	}
}
