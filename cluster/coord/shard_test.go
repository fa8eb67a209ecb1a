package coord

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/faultinject"
)

// refShard is the shard's expand step as it was before the word-scanning
// kernel — a closure call per candidate, a PartitionOwner division and a
// Frontier.Set per edge, over the whole graph — kept as the oracle the
// kernel must match byte for byte.
type refShard struct {
	g          *graph.Graph
	id, shards int
	lo, hi     uint32
	depth      []int32
}

func newRefShard(g *graph.Graph, id, shards int) *refShard {
	lo, hi := PartitionRange(g.NumVertices(), shards, id)
	return &refShard{g: g, id: id, shards: shards, lo: lo, hi: hi}
}

func (r *refShard) expand(req *Frontier) []byte {
	if req.Round == 0 {
		r.depth = make([]int32, r.hi-r.lo)
		for i := range r.depth {
			r.depth[i] = -1
		}
	}
	resp := &ExpandResponse{Epoch: req.Epoch, Round: req.Round, Shard: uint32(r.id)}
	out := make([]*Frontier, r.shards)
	n := r.g.NumVertices()
	req.ForEach(func(v uint32) {
		if r.depth[v-r.lo] != -1 {
			return
		}
		r.depth[v-r.lo] = int32(req.Round)
		resp.Claimed++
		for _, w := range r.g.Neighbors1(v) {
			o := PartitionOwner(n, r.shards, w)
			if out[o] == nil {
				lo, hi := PartitionRange(n, r.shards, o)
				out[o] = NewFrontier(req.Epoch, req.Round, uint32(o), lo, hi)
			}
			out[o].Set(w)
		}
	})
	for _, f := range out {
		if f != nil && !f.Empty() {
			resp.Out = append(resp.Out, f)
		}
	}
	return resp.Encode()
}

// driveEpoch runs one epoch from source over k in-process shards the way
// the coordinator does: every shard gets a candidate frontier every
// round, and the discoveries merge into the next round's candidates until
// a round claims nothing. expand answers shard i's round message.
func driveEpoch(t *testing.T, n, k int, epoch uint64, source uint32, expand func(i int, cand *Frontier) []byte) {
	t.Helper()
	cand := make([]*Frontier, k)
	for i := range cand {
		lo, hi := PartitionRange(n, k, i)
		cand[i] = NewFrontier(epoch, 0, uint32(i), lo, hi)
	}
	cand[PartitionOwner(n, k, source)].Set(source)
	for round := uint32(0); ; round++ {
		next := make([]*Frontier, k)
		for i := range next {
			lo, hi := PartitionRange(n, k, i)
			next[i] = NewFrontier(epoch, round+1, uint32(i), lo, hi)
		}
		var claimed uint64
		for i := range cand {
			resp, err := DecodeExpandResponse(expand(i, cand[i]))
			if err != nil {
				t.Fatalf("round %d shard %d: %v", round, i, err)
			}
			claimed += resp.Claimed
			for _, f := range resp.Out {
				if err := next[f.Shard].Union(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		if claimed == 0 {
			return
		}
		cand = next
	}
}

// checkDepths compares the shards' depth slices for epoch, asked for
// under fence, with serial BFS.
func checkDepths(t *testing.T, g *graph.Graph, shards []*Shard, epoch, fence uint64, source uint32) {
	t.Helper()
	want, _ := serialDepths(t, g, source)
	for i, s := range shards {
		d, err := s.Depths(epoch, fence)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for off, got := range d.Depth {
			if v := d.Lo + uint32(off); got != want[v] {
				t.Fatalf("source %d: vertex %d depth %d, serial %d", source, v, got, want[v])
			}
		}
	}
}

// mustGraph unwraps a generator result; the fixed test graphs never fail.
func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func edgeGraph(n int, edges ...graph.Edge) *graph.Graph {
	return mustGraph(graph.FromEdges(n, edges))
}

// kernelCases are the graphs the kernel is checked on, each with the
// shard counts it runs at.
func kernelCases() []struct {
	name   string
	g      *graph.Graph
	shards []int
} {
	var star, loops, split []graph.Edge
	for v := uint32(1); v < 40; v++ {
		star = append(star, graph.Edge{U: 0, V: v}, graph.Edge{U: v, V: 0})
	}
	for v := uint32(0); v < 20; v++ {
		loops = append(loops, graph.Edge{U: v, V: v}, graph.Edge{U: v, V: (v + 3) % 20})
	}
	for v := uint32(0); v < 10; v++ {
		// Two 10-cycles and five isolated vertices.
		split = append(split, graph.Edge{U: v, V: (v + 1) % 10}, graph.Edge{U: 10 + v, V: 10 + (v+1)%10})
	}
	return []struct {
		name   string
		g      *graph.Graph
		shards []int
	}{
		{"rmat", mustGraph(gen.RMAT(gen.Graph500Params(7, 8), 5)), []int{1, 3, 4}},
		{"grid", mustGraph(gen.Grid2D(7, 9, 0, 1)), []int{2, 4}},
		{"star", edgeGraph(40, star...), []int{3}},
		{"self-loops", edgeGraph(20, loops...), []int{3}},
		{"disconnected", edgeGraph(25, split...), []int{4}},
		{"uneven", mustGraph(gen.UniformRandom(50, 3, 2)), []int{7}},
		{"shards>vertices", edgeGraph(3, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 0}), []int{5}},
	}
}

// TestExpandMatchesReference: for every round of every source, the
// word-scanning kernel over the owned CSR answers with the exact bytes
// the closure loop over the whole graph produced, and the depths it
// commits are serial BFS's. One set of shards serves all sources in turn,
// so each source also exercises the round-0 reset of the last epoch.
func TestExpandMatchesReference(t *testing.T) {
	for _, tg := range kernelCases() {
		n := tg.g.NumVertices()
		for _, k := range tg.shards {
			t.Run(fmt.Sprintf("%s/%d", tg.name, k), func(t *testing.T) {
				shards := make([]*Shard, k)
				refs := make([]*refShard, k)
				for i := range shards {
					var err error
					if shards[i], err = NewShard(tg.g, i, k, "", nil); err != nil {
						t.Fatal(err)
					}
					refs[i] = newRefShard(tg.g, i, k)
				}
				for src := 0; src < n; src++ {
					epoch := uint64(src) + 1
					driveEpoch(t, n, k, epoch, uint32(src), func(i int, cand *Frontier) []byte {
						got, err := shards[i].Expand(cand, 0)
						if err != nil {
							t.Fatal(err)
						}
						if want := refs[i].expand(cand); !bytes.Equal(got, want) {
							t.Fatalf("source %d round %d shard %d: kernel response differs from the reference", src, cand.Round, i)
						}
						return got
					})
					checkDepths(t, tg.g, shards, epoch, 0, uint32(src))
				}
			})
		}
	}
}

// TestRoundLogReplay: every shard is restarted from its round log after
// every round. The restarted shard resumes at the next round and replays
// the pre-crash response byte for byte, and the epoch finishes exactly on
// the restarted shards. Reusing the directories for a second source
// starts each shard's next epoch over its old log.
func TestRoundLogReplay(t *testing.T) {
	for _, tg := range kernelCases() {
		n := tg.g.NumVertices()
		k := tg.shards[len(tg.shards)-1]
		t.Run(tg.name, func(t *testing.T) {
			shards := make([]*Shard, k)
			dirs := make([]string, k)
			for i := range shards {
				dirs[i] = t.TempDir()
				var err error
				if shards[i], err = NewShard(tg.g, i, k, dirs[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range []uint32{0, uint32(n - 1)} {
				epoch := uint64(src) + 1
				driveEpoch(t, n, k, epoch, src, func(i int, cand *Frontier) []byte {
					resp, err := shards[i].Expand(cand, 0)
					if err != nil {
						t.Fatal(err)
					}
					s, err := NewShard(tg.g, i, k, dirs[i], nil)
					if err != nil {
						t.Fatal(err)
					}
					if st := s.Status(); st.Epoch != epoch || st.Round != cand.Round+1 {
						t.Fatalf("shard %d restarted at epoch %d round %d, want epoch %d round %d", i, st.Epoch, st.Round, epoch, cand.Round+1)
					}
					replay, err := s.Expand(cand, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(replay, resp) {
						t.Fatalf("source %d round %d shard %d: replay after restart differs from the pre-crash response", src, cand.Round, i)
					}
					shards[i] = s
					return resp
				})
				checkDepths(t, tg.g, shards, epoch, 0, src)
			}
		})
	}
}

// logShard runs rounds [0, rounds) of an epoch from vertex 0 on a
// single-shard 6x6 grid whose round log lives in dir, and returns the
// shard and the next round's candidates.
func logShard(t *testing.T, dir string, inj *faultinject.Plan, epoch uint64, fence uint64, rounds int) (*Shard, *Frontier) {
	t.Helper()
	s := gridShard(t, dir, inj)
	cand := NewFrontier(epoch, 0, 0, s.lo, s.hi)
	cand.Set(0)
	for r := 0; r < rounds; r++ {
		cand = stepShard(t, s, cand, fence)
	}
	return s, cand
}

// stepShard runs one round on a single-shard cluster and returns the
// next round's candidates.
func stepShard(t *testing.T, s *Shard, cand *Frontier, fence uint64) *Frontier {
	t.Helper()
	b, err := s.Expand(cand, fence)
	if err != nil {
		t.Fatalf("round %d: %v", cand.Round, err)
	}
	resp, err := DecodeExpandResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	next := NewFrontier(cand.Epoch, cand.Round+1, 0, s.lo, s.hi)
	for _, f := range resp.Out {
		if err := next.Union(f); err != nil {
			t.Fatal(err)
		}
	}
	return next
}

// logGrid is the 6x6 grid the round-log tests serve from one shard.
func logGrid() *graph.Graph { return mustGraph(gen.Grid2D(6, 6, 0, 1)) }

// gridShard builds the single shard over logGrid, restoring from dir.
func gridShard(t *testing.T, dir string, inj *faultinject.Plan) *Shard {
	t.Helper()
	s, err := NewShard(logGrid(), 0, 1, dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundLogFailedAppendRetries: a round whose log append fails is not
// applied. The coordinator's retry of it is processed afresh — not
// answered from a cache that never became durable — and once it is
// acknowledged a restarted shard resumes after it.
func TestRoundLogFailedAppendRetries(t *testing.T) {
	dir := t.TempDir()
	inj := &faultinject.Plan{Seed: 1, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteShardCheckpoint: {FaultProb: 1},
	}}
	inj.SetEnabled(false)
	s, cand := logShard(t, dir, inj, 1, 0, 3)
	_, want := logShard(t, t.TempDir(), nil, 1, 0, 4)

	inj.SetEnabled(true)
	if _, err := s.Expand(cand, 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("round 3 with a failing checkpoint: err = %v", err)
	}
	if st := s.Status(); st.Round != 3 {
		t.Fatalf("failed round 3 advanced the shard to round %d", st.Round)
	}
	inj.SetEnabled(false)
	if got := stepShard(t, s, cand, 0); !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("retried round 3 discovered a different frontier than an unfaulted run")
	}
	if st := gridShard(t, dir, nil).Status(); st.Round != 4 {
		t.Fatalf("acknowledged round 3, but a restarted shard resumes at round %d", st.Round)
	}
}

// TestRoundLogEpochStartCrash: a shard crashes at an epoch start, after
// writing the new log's temp file and before renaming it. The old log and
// the fence it carries survive, so the restarted shard still refuses the
// coordinator that fence deposed, and the next epoch start succeeds.
func TestRoundLogEpochStartCrash(t *testing.T) {
	dir := t.TempDir()
	inj := &faultinject.Plan{Seed: 1, Rules: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteShardCheckpoint: {FaultProb: 1},
	}}
	inj.SetEnabled(false)
	s, _ := logShard(t, dir, inj, 1, 7, 5)

	inj.SetEnabled(true)
	start := NewFrontier(2, 0, 0, s.lo, s.hi)
	start.Set(35)
	if _, err := s.Expand(start, 9); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("epoch start with a failing checkpoint: err = %v", err)
	}
	if _, err := os.Stat(checkpointPath(dir) + ".tmp"); err != nil {
		t.Fatalf("the crash window left no temp file: %v", err)
	}

	r := gridShard(t, dir, nil)
	if st := r.Status(); st.Epoch != 1 || st.Round != 5 || st.Fence != 7 {
		t.Fatalf("restarted at epoch %d round %d fence %d, want the old log's epoch 1 round 5 fence 7", st.Epoch, st.Round, st.Fence)
	}
	if _, err := r.Depths(1, 5); !errors.Is(err, ErrFenced) {
		t.Fatalf("restarted shard served a deposed coordinator: err = %v", err)
	}
	stepShard(t, r, start, 9)
	if st := gridShard(t, dir, nil).Status(); st.Epoch != 2 || st.Round != 1 || st.Fence != 9 {
		t.Fatalf("after the retried epoch start: epoch %d round %d fence %d, want 2, 1, 9", st.Epoch, st.Round, st.Fence)
	}
}

// TestRoundLogLegacySnapshot: a FBFSCKP2 snapshot written by
// SaveCheckpoint restores a shard, which replays the snapshot's cached
// response, finishes the epoch exactly, and leaves a round log behind.
func TestRoundLogLegacySnapshot(t *testing.T) {
	live, cand := logShard(t, "", nil, 1, 0, 4)
	d, err := live.Depths(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate of round 3 is answered with the cached response.
	last := NewFrontier(1, 3, 0, live.lo, live.hi)
	resp, err := live.Expand(last, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveCheckpoint(dir, &Checkpoint{Epoch: 1, Round: 4, Fence: 3, Lo: live.lo, Hi: live.hi, Depth: d.Depth, Resp: resp}); err != nil {
		t.Fatal(err)
	}

	s := gridShard(t, dir, nil)
	if st := s.Status(); st.Epoch != 1 || st.Round != 4 || st.Fence != 3 {
		t.Fatalf("snapshot restored epoch %d round %d fence %d, want 1, 4, 3", st.Epoch, st.Round, st.Fence)
	}
	if replay, err := s.Expand(last, 3); err != nil || !bytes.Equal(replay, resp) {
		t.Fatalf("snapshot's cached response not replayed: err = %v", err)
	}
	for r := 0; r < 2; r++ {
		cand = stepShard(t, s, cand, 3)
	}
	b, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(roundLogMagic)) {
		t.Fatal("the first round after a snapshot restore did not rewrite it as a round log")
	}
	s = gridShard(t, dir, nil)
	if st := s.Status(); st.Round != 6 || st.Fence != 3 {
		t.Fatalf("round log written over the snapshot restored round %d fence %d, want 6, 3", st.Round, st.Fence)
	}
	for cand.Count() > 0 {
		cand = stepShard(t, s, cand, 3)
	}
	checkDepths(t, logGrid(), []*Shard{s}, 1, 3, 0)
}

// FuzzLoadRoundLog: arbitrary bytes never panic the loader, the only
// error it returns is ErrCheckpoint, and whatever follows a valid log
// never costs it a record.
func FuzzLoadRoundLog(f *testing.F) {
	const lo, hi = 40, 140
	valid := appendLogHeader(nil, 3, lo, hi, 2)
	claims := [][]uint32{{7}, {1, 8, 99}, {}, {0, 2, 50}}
	for r, c := range claims {
		valid = appendLogRecord(valid, uint32(r), 2+uint64(r/2), c)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(appendLogRecord(nil, 4, 9, []uint32{3}))
	f.Add(appendLogRecord(nil, 4, 9, []uint32{99, 3}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if rl, err := loadRoundLog(b, lo, hi); err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("error %v is not ErrCheckpoint", err)
			}
		} else if rl.size > len(b) || len(rl.depth) != hi-lo {
			t.Fatalf("valid prefix %d of %d bytes, %d depths", rl.size, len(b), len(rl.depth))
		}

		rl, err := loadRoundLog(append(valid[:len(valid):len(valid)], b...), lo, hi)
		if err != nil {
			t.Fatalf("valid log with a tail rejected: %v", err)
		}
		if rl.epoch != 3 || rl.next < uint32(len(claims)) || rl.size < len(valid) {
			t.Fatalf("valid log with a tail recovered epoch %d, %d rounds, %d bytes", rl.epoch, rl.next, rl.size)
		}
		for r, c := range claims {
			for _, off := range c {
				if rl.depth[off] != int32(r) {
					t.Fatalf("offset %d replayed at depth %d, logged in round %d", off, rl.depth[off], r)
				}
			}
		}
		for _, off := range rl.last {
			if rl.depth[off] != int32(rl.next)-1 {
				t.Fatalf("last round's claim %d at depth %d, want %d", off, rl.depth[off], rl.next-1)
			}
		}
	})
}
