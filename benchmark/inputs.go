package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/xrand"
)

// Stream purposes: every random stream of a run is derived from
// (seed, purpose, client id), so a run is reproducible request for request
// and no two streams share state.
const (
	streamGraph = iota + 1
	streamPool
	streamPerm
	streamTargets
	streamZipf
)

func streamSeed(seed uint64, purpose, client int) uint64 {
	return xrand.SplitMix64(seed ^ xrand.SplitMix64(uint64(purpose)<<32|uint64(client)))
}

// truth is the serial reference for one pool source.
type truth struct {
	depth    []int16 // -1 = unreached
	visited  int64
	levels   []int64 // vertices first reached at each depth
	teps     int64   // Graph500 numerator: Σ out-degree over visited vertices
	serialMS float64
}

// inputs is everything a workload is given: a graph file made from the
// seed, a pool of sources and the serial reference for each of them.
type inputs struct {
	kind      string
	g         *graph.Graph // nil once dropGraph has released it
	vertices  int
	edges     int64
	path      string
	fileBytes int64
	genS      float64
	pool      []uint32
	oracle    []*truth
}

// makeInputs generates the named graph ("rmat<scale>" via scale, or the
// grid), writes it with Graph.Save, draws the pool and computes the oracle.
func makeInputs(e *env, kind string, poolSize int) (*inputs, error) {
	in := &inputs{kind: kind}
	seed := streamSeed(e.seed, streamGraph, 0)
	start := time.Now()
	var err error
	switch kind {
	case "grid":
		in.g, err = gen.Grid2D(e.sz.gridSide, e.sz.gridSide, 0, seed)
	case "rmat-big":
		in.g, err = gen.RMAT(gen.Graph500Params(e.sz.bigScale, 16), seed)
	case "rmat-small":
		in.g, err = gen.RMAT(gen.Graph500Params(e.sz.smallScale, 16), seed)
	default:
		err = fmt.Errorf("unknown graph kind %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", kind, err)
	}
	in.vertices, in.edges = in.g.NumVertices(), in.g.NumEdges()
	in.path = filepath.Join(e.outDir, fmt.Sprintf("%s-%d.csr", kind, e.seed))
	if err := in.g.Save(in.path); err != nil {
		return nil, fmt.Errorf("saving %s: %w", in.path, err)
	}
	in.genS = time.Since(start).Seconds()
	fi, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.fileBytes = fi.Size()

	// Draw sources with out-degree >= 1 (the Graph500 rule) that also reach
	// at least 1/16 of the graph: R-MAT is directed here, and a source
	// stranded in a tiny component would be a different, trivial operation
	// (it alone would set the harmonic-mean TEPS).
	rng := xrand.New(streamSeed(e.seed, streamPool, 0))
	seen := map[uint32]bool{}
	n := in.vertices
	for tries := 0; len(in.pool) < poolSize; tries++ {
		if tries > 100*poolSize {
			return nil, fmt.Errorf("%s: fewer than %d usable sources in %d draws", kind, poolSize, tries)
		}
		s := uint32(rng.Intn(n))
		if in.g.Degree(s) < 1 || seen[s] {
			continue
		}
		seen[s] = true
		t0 := time.Now()
		ref, err := bfs.RunSerial(in.g, s)
		if err != nil {
			return nil, fmt.Errorf("serial reference from %d: %w", s, err)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if ref.Visited*16 < int64(n) {
			continue
		}
		if len(in.pool) == 0 {
			// The reference itself is checked once by the Graph500 rules
			// (parent edges exist, levels consistent).
			if err := bfs.Validate(in.g, ref); err != nil {
				return nil, fmt.Errorf("serial reference failed validation: %w", err)
			}
		}
		tr := &truth{depth: make([]int16, n), visited: ref.Visited, serialMS: ms}
		for v := 0; v < n; v++ {
			d := ref.Depth(uint32(v))
			if d > 32767 {
				return nil, fmt.Errorf("depth %d exceeds the oracle's int16 range", d)
			}
			tr.depth[v] = int16(d)
			if d < 0 {
				continue
			}
			for int(d) >= len(tr.levels) {
				tr.levels = append(tr.levels, 0)
			}
			tr.levels[d]++
			tr.teps += int64(in.g.Degree(uint32(v)))
		}
		in.pool = append(in.pool, s)
		in.oracle = append(in.oracle, tr)
	}
	return in, nil
}

// serialMS is the median serial time over the first serialRoots sources.
func (in *inputs) serialMS(roots int) float64 {
	ms := make([]float64, 0, roots)
	for _, t := range in.oracle[:min(roots, len(in.oracle))] {
		ms = append(ms, t.serialMS)
	}
	return median(ms)
}

// dropGraph releases the generator's copy of the graph, so that it does
// not count towards the resident set of an in-process system under test.
func (in *inputs) dropGraph() {
	in.g = nil
	debug.FreeOSMemory()
}

// cleanup removes the generated graph file (tens of MB per seed) and the
// index artifact bfsd persists next to it.
func (in *inputs) cleanup() {
	os.Remove(in.path)
	os.Remove(in.path + ".idx")
}

// walker yields one client's request stream over its own share of the
// pool: client c of n owns pool indices ≡ c (mod n) and walks a fixed
// permutation of them cyclically. No two clients ever ask for the same
// source, and a source recurs only after the rest of the pool has been
// asked for (95 other sources against a 32-entry LRU; with 2 clients each
// share alone is longer than the LRU), so the stream is all misses.
type walker struct {
	idx  []int // pool indices in walk order
	pos  int
	tgts *xrand.Gen
	n    int // vertices
}

func newWalker(in *inputs, seed uint64, client, clients int) *walker {
	var own []int
	for i := client; i < len(in.pool); i += clients {
		own = append(own, i)
	}
	perm := xrand.New(streamSeed(seed, streamPerm, client)).Perm(len(own))
	w := &walker{tgts: xrand.New(streamSeed(seed, streamTargets, client)), n: in.vertices}
	for _, p := range perm {
		w.idx = append(w.idx, own[p])
	}
	return w
}

func (w *walker) next() int {
	i := w.idx[w.pos]
	w.pos = (w.pos + 1) % len(w.idx)
	return i
}

func (w *walker) target() uint32 { return uint32(w.tgts.Intn(w.n)) }
