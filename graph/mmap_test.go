package graph_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

func saveTemp(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := g.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

// TestLoadMmapIdentical is the core mmap contract: a mapped graph is
// indistinguishable from a heap-loaded one — same arrays, same
// traversal behavior — because the on-disk arrays ARE the in-memory
// arrays.
func TestLoadMmapIdentical(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(10, 8), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := saveTemp(t, g)

	heap, err := graph.Load(path)
	if err != nil {
		t.Fatalf("heap load: %v", err)
	}
	mapped, err := graph.LoadMmap(path)
	if err != nil {
		t.Fatalf("mmap load: %v", err)
	}
	if !reflect.DeepEqual(heap.Offsets, mapped.Offsets) {
		t.Fatal("offsets differ between heap and mmap load")
	}
	if !reflect.DeepEqual(heap.Neighbors, mapped.Neighbors) {
		t.Fatal("neighbors differ between heap and mmap load")
	}
	if heap.MappedBytes() != 0 {
		t.Fatalf("heap graph claims %d mapped bytes", heap.MappedBytes())
	}
	if runtime.GOOS == "linux" && mapped.MappedBytes() == 0 {
		t.Fatal("mmap-loaded graph reports no mapped bytes")
	}

	// Traversals over the mapped graph must give the heap graph's depths
	// exactly and a valid BFS tree. Parents are checked for validity, not
	// identity: with more than one worker the benign-race protocol lets
	// either of two same-depth parents win, run to run.
	for _, source := range []uint32{0, 1, uint32(g.NumVertices() / 2)} {
		rh, err := bfs.Run(heap, source, bfs.Default(1))
		if err != nil {
			t.Fatalf("heap run: %v", err)
		}
		rm, err := bfs.Run(mapped, source, bfs.Default(1))
		if err != nil {
			t.Fatalf("mmap run: %v", err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if dh, dm := rh.Depth(uint32(v)), rm.Depth(uint32(v)); dh != dm {
				t.Fatalf("source %d: vertex %d at depth %d on the heap graph, %d on the mapped one", source, v, dh, dm)
			}
		}
		if err := bfs.Validate(mapped, rm); err != nil {
			t.Fatalf("source %d: mmap run: %v", source, err)
		}
	}
	runtime.KeepAlive(mapped)
}

func TestLoadMmapEmptyAndTiny(t *testing.T) {
	// (The zero-value empty graph is absent: WriteTo emits no offset
	// terminator for it, so it does not round-trip through ReadFrom
	// either — a pre-existing format corner, not an mmap one.)
	for name, g := range map[string]*graph.Graph{
		"one-vertex":  {Offsets: []int64{0, 0}},
		"self-loop":   {Offsets: []int64{0, 1}, Neighbors: []uint32{0}},
		"two-vertex":  {Offsets: []int64{0, 1, 2}, Neighbors: []uint32{1, 0}},
		"no-edges-3v": {Offsets: []int64{0, 0, 0, 0}},
	} {
		t.Run(name, func(t *testing.T) {
			path := saveTemp(t, g)
			m, err := graph.LoadMmap(path)
			if err != nil {
				t.Fatalf("mmap: %v", err)
			}
			if m.NumVertices() != g.NumVertices() || m.NumEdges() != g.NumEdges() {
				t.Fatalf("got %d/%d vertices/edges, want %d/%d",
					m.NumVertices(), m.NumEdges(), g.NumVertices(), g.NumEdges())
			}
			runtime.KeepAlive(m)
		})
	}
}

func TestLoadMmapRejectsCorruption(t *testing.T) {
	g, err := gen.UniformRandom(1000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := saveTemp(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bit-flip", func(t *testing.T) {
		bad := append([]byte{}, data...)
		bad[len(bad)/2] ^= 0x01
		p := filepath.Join(t.TempDir(), "bad.csr")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.LoadMmap(p); !errors.Is(err, graph.ErrChecksum) {
			t.Fatalf("bit-flipped file: err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "trunc.csr")
		if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.LoadMmap(p); err == nil {
			t.Fatal("truncated file loaded without error")
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "trail.csr")
		if err := os.WriteFile(p, append(append([]byte{}, data...), 0xde, 0xad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.LoadMmap(p); err == nil {
			t.Fatal("file with trailing garbage loaded without error")
		}
	})
	t.Run("legacy-footerless", func(t *testing.T) {
		// A pre-footer file is the arrays alone; it must still load
		// (nothing to verify), matching ReadFrom's back-compat rule.
		p := filepath.Join(t.TempDir(), "legacy.csr")
		if err := os.WriteFile(p, data[:len(data)-12], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := graph.LoadMmap(p)
		if err != nil {
			t.Fatalf("legacy file: %v", err)
		}
		if m.NumEdges() != g.NumEdges() {
			t.Fatalf("legacy load lost edges: %d vs %d", m.NumEdges(), g.NumEdges())
		}
		runtime.KeepAlive(m)
	})
}
