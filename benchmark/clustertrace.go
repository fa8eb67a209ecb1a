package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/bfs"
	"fastbfs/cluster/coord"
	"fastbfs/graph"
)

// rpc is one shard request the twin's middleware saw.
type rpc struct {
	path       string
	req, resp  []byte
	start, end int64
	op         int
}

// twin is the in-process twin of a cluster-* topology: coord.NewReplicaShard
// handlers behind httptest servers, wrapped in a middleware that times each
// request and keeps its bytes, under a coord.Coordinator.
type twin struct {
	co      *coord.Coordinator
	servers []*httptest.Server
	journal *coord.Journal
	dir     string

	op   atomic.Int64 // operation the coordinator is running
	mu   sync.Mutex
	rpcs []rpc
}

func (t *twin) close() {
	for _, s := range t.servers {
		s.Close()
	}
	if t.journal != nil {
		t.journal.Close()
	}
	os.RemoveAll(t.dir)
}

// capture wraps a shard handler: it times the handler and keeps the
// request and reply bytes.
func (t *twin) capture(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := &recorder{ResponseWriter: w}
		c := rpc{path: r.URL.Path, req: body, op: int(t.op.Load()), start: tr.now()}
		next.ServeHTTP(rec, r)
		c.end, c.resp = tr.now(), rec.buf.Bytes()
		t.mu.Lock()
		t.rpcs = append(t.rpcs, c)
		t.mu.Unlock()
	})
}

type recorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.buf.Write(b)
	return r.ResponseWriter.Write(b)
}

// openTwin assembles the twin. checkpoints selects whether shards persist
// a checkpoint per round (the shipped topology) or keep no checkpoint dir.
func openTwin(e *env, g *graph.Graph, replicas int, checkpoints bool) (*twin, error) {
	dir, err := os.MkdirTemp(e.outDir, "twin-")
	if err != nil {
		return nil, err
	}
	t := &twin{dir: dir}
	cfg := coord.Config{Replicas: replicas, AuditReplicas: replicas > 1} // bfsd's flag defaults
	for id := 0; id < clusterShards; id++ {
		for r := 0; r < replicas; r++ {
			ckpt := ""
			if checkpoints {
				ckpt = filepath.Join(dir, fmt.Sprintf("shard%d-%d", id, r))
				if err := os.Mkdir(ckpt, 0o755); err != nil {
					t.close()
					return nil, err
				}
			}
			sh, err := coord.NewReplicaShard(g, id, r, clusterShards, ckpt, nil)
			if err != nil {
				t.close()
				return nil, err
			}
			srv := httptest.NewServer(t.capture(e.tr, sh.Handler()))
			t.servers = append(t.servers, srv)
			cfg.Shards = append(cfg.Shards, srv.URL)
		}
	}
	if replicas > 1 {
		if t.journal, err = coord.OpenJournal(filepath.Join(dir, "coord"), 0); err != nil {
			t.close()
			return nil, err
		}
		cfg.Journal, cfg.Fence = t.journal, 1
	}
	if t.co, err = coord.Open(context.Background(), cfg); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// twinRun is one Coordinator.Run seen from outside.
type twinRun struct {
	ms     float64
	rounds []twinRound
}

type twinRound struct {
	ms, slowestMS     float64
	bytesOut, bytesIn float64
}

// twinOutcome is what driving one twin for a while produced.
type twinOutcome struct {
	win    *window
	runs   []twinRun
	faults coord.Result // recovery actions summed over every run, failed ones included
	last   []rpc        // the shard requests of the last run
}

// driveTwin assembles a twin and runs Coordinator.Run over the pool walk
// for d, checking every result against the serial reference (depths exact)
// and turning the captured shard requests into coord.run > coord.round >
// shard.expand spans. A round starts at its first expand request and ends
// where the next round (or the depth gather) starts, so what a round adds
// to its slowest handler is the coordinator's: merge, HTTP client, codec,
// audit, journal.
func driveTwin(e *env, g *graph.Graph, in *inputs, replicas int, checkpoints bool, d time.Duration) (*twinOutcome, error) {
	t, err := openTwin(e, g, replicas, checkpoints)
	if err != nil {
		return nil, err
	}
	defer t.close()
	out := &twinOutcome{win: &window{start: time.Now()}}
	walk := newWalker(in, e.seed, 0, 1)
	for time.Since(out.win.start) < d {
		idx := walk.next()
		out.win.attempted++
		op := e.tr.newOp()
		t.op.Store(int64(op))
		t.mu.Lock()
		t.rpcs = t.rpcs[:0]
		t.mu.Unlock()
		t0 := e.tr.now()
		res, err := t.co.Run(context.Background(), in.pool[idx])
		t1 := e.tr.now()
		runSpan := e.tr.add("coord.run", t0, t1, 0, op)
		if err == nil {
			out.faults.Retries += res.Retries
			out.faults.EpochRestarts += res.EpochRestarts
			out.faults.Failovers += res.Failovers
			out.faults.Hedges += res.Hedges
			out.faults.Divergences += res.Divergences
			err = checkClusterResult(res, in.pool[idx], in.oracle[idx])
		}
		if err != nil {
			out.win.fail("%v", err)
			continue
		}
		ms := float64(t1-t0) / 1e6
		out.win.add(ms, in.oracle[idx].teps)
		run, err := t.spansOf(e.tr, runSpan, op, t1)
		if err != nil {
			return nil, err
		}
		run.ms = ms
		out.runs = append(out.runs, run)
	}
	out.win.elapsedS = time.Since(out.win.start).Seconds()
	out.last = slices.Clone(t.rpcs)
	if len(out.runs) == 0 {
		return nil, fmt.Errorf("no coordinator run succeeded: %s", out.win.firstErr)
	}
	return out, nil
}

// spansOf groups one run's captured expand requests by round.
func (t *twin) spansOf(tr *tracer, runSpan, op int, runEnd int64) (twinRun, error) {
	t.mu.Lock()
	rpcs := slices.Clone(t.rpcs)
	t.mu.Unlock()
	byRound := map[uint32][]rpc{}
	gatherStart := runEnd
	for _, c := range rpcs {
		switch c.path {
		case "/shard/expand":
			f, err := coord.DecodeFrontier(c.req)
			if err != nil {
				return twinRun{}, fmt.Errorf("captured expand request: %w", err)
			}
			byRound[f.Round] = append(byRound[f.Round], c)
		case "/shard/depths":
			gatherStart = min(gatherStart, c.start)
		}
	}
	starts := make([]int64, len(byRound)+1)
	for r := range starts[:len(byRound)] {
		cs, ok := byRound[uint32(r)]
		if !ok {
			return twinRun{}, fmt.Errorf("no expand request captured for round %d of %d", r, len(byRound))
		}
		starts[r] = cs[0].start
		for _, c := range cs {
			starts[r] = min(starts[r], c.start)
		}
	}
	starts[len(byRound)] = gatherStart
	var run twinRun
	for r := 0; r < len(byRound); r++ {
		roundSpan := tr.add("coord.round", starts[r], starts[r+1], runSpan, op)
		round := twinRound{ms: float64(starts[r+1]-starts[r]) / 1e6}
		for _, c := range byRound[uint32(r)] {
			tr.add("shard.expand", c.start, c.end, roundSpan, op)
			round.slowestMS = max(round.slowestMS, float64(c.end-c.start)/1e6)
			round.bytesOut += float64(len(c.req))
			round.bytesIn += float64(len(c.resp))
		}
		run.rounds = append(run.rounds, round)
	}
	for _, c := range rpcs {
		if c.path == "/shard/depths" {
			tr.add("shard.depths", c.start, c.end, runSpan, op)
		}
	}
	return run, nil
}

// checkClusterResult compares a coordinator result with the serial
// reference: every depth, the level sizes, and no recovery action.
func checkClusterResult(res *coord.Result, source uint32, t *truth) error {
	reply := clusterReply{Source: res.Source, Visited: res.Visited, Rounds: res.Rounds, ClaimedPerRound: res.ClaimedPerRound,
		Incomplete: res.Incomplete, Retries: res.Retries, EpochRestarts: res.EpochRestarts,
		Failovers: res.Failovers, Divergences: res.Divergences, Hedges: res.Hedges}
	if err := reply.check(source, t); err != nil {
		return err
	}
	for v, want := range t.depth {
		if res.Depth[v] != int32(want) {
			return fmt.Errorf("source %d: vertex %d depth %d, serial %d", source, v, res.Depth[v], want)
		}
	}
	return nil
}

// roundSummary is the runs of one twin folded into per-run and per-round
// series.
type roundSummary struct {
	runMS, rounds, explained                          []float64 // per run
	roundMS, handlerMS, overheadMS, bytesOut, bytesIn []float64 // per round
}

func summarize(runs []twinRun) roundSummary {
	var s roundSummary
	for _, run := range runs {
		s.runMS = append(s.runMS, run.ms)
		s.rounds = append(s.rounds, float64(len(run.rounds)))
		var sum float64
		for _, r := range run.rounds {
			s.roundMS = append(s.roundMS, r.ms)
			s.handlerMS = append(s.handlerMS, r.slowestMS)
			s.overheadMS = append(s.overheadMS, r.ms-r.slowestMS)
			s.bytesOut, s.bytesIn = append(s.bytesOut, r.bytesOut), append(s.bytesIn, r.bytesIn)
			sum += r.ms
		}
		s.explained = append(s.explained, ratio(sum, run.ms))
	}
	return s
}

// traceCluster probes the layers behind a cluster-* workload: the round
// protocol on the workload's topology, the same without checkpoints (the
// difference is the in-situ checkpoint price), the wire codec on captured
// payloads, and one checkpoint save and journal append in isolation. The
// replicated workload also runs the R=1 twin, for coord.r2_over_r1.
func traceCluster(e *env, replicas int, in *inputs) (metrics, *window, error) {
	m := metrics{}
	in.dropGraph()
	g, err := probeGraph(e, in, m)
	if err != nil {
		return nil, nil, err
	}
	defer bfs.ReleaseInAdjacency(g)

	main, err := driveTwin(e, g, in, replicas, true, e.window(0.5))
	if err != nil {
		return nil, nil, err
	}
	win, faults, sum := main.win, main.faults, summarize(main.runs)
	n, nr := len(main.runs), len(sum.roundMS)
	m.set("coord.run_ms_p50", median(sum.runMS), n)
	m.set("coord.rounds", median(sum.rounds), n)
	m.set("coord.round_ms_p50", median(sum.roundMS), nr)
	m.set("coord.overhead_ms_per_round", mean(sum.overheadMS), nr)
	m.set("coord.sum_check", median(sum.explained), n)
	m.set("coord.retries", float64(faults.Retries), n)
	m.set("coord.epoch_restarts", float64(faults.EpochRestarts), n)
	m.set("coord.failovers", float64(faults.Failovers), n)
	m.set("coord.hedges", float64(faults.Hedges), n)
	m.set("coord.divergences", float64(faults.Divergences), n)
	m.set("shard.handler_ms_per_round", mean(sum.handlerMS), nr)
	m.set("wire.bytes_out_per_round", mean(sum.bytesOut), nr)
	m.set("wire.bytes_in_per_round", mean(sum.bytesIn), nr)

	bare, err := driveTwin(e, g, in, replicas, false, e.window(0.2))
	if err != nil {
		return nil, nil, err
	}
	win.merge(bare.win)
	bareSum := summarize(bare.runs)
	m.set("shard.handler_nockpt_ms_per_round", mean(bareSum.handlerMS), len(bareSum.roundMS))

	if replicas > 1 {
		r1, err := driveTwin(e, g, in, 1, true, e.window(0.2))
		if err != nil {
			return nil, nil, err
		}
		win.merge(r1.win)
		m.set("coord.r2_over_r1", ratio(median(sum.runMS), median(summarize(r1.runs).runMS)), len(r1.runs))
	}

	if err := probeWire(e, in, main.last, replicas > 1, m); err != nil {
		return nil, nil, err
	}
	return m, win, nil
}

// probeWire times the codec on the last run's captured payloads, and one
// checkpoint save and (when replicated) one journal append of realistic
// size, each alone.
func probeWire(e *env, in *inputs, rpcs []rpc, journal bool, m metrics) error {
	var encUS, decUS []float64
	var cand [][]byte // round 1's candidate frontiers, one per group
	var candEpoch uint64
	var lastResp []byte
	for _, c := range rpcs {
		if c.path != "/shard/expand" {
			continue
		}
		f, err := coord.DecodeFrontier(c.req)
		if err != nil {
			return err
		}
		encUS = append(encUS, 1e3*e.tr.timed("wire.encode", 0, 0, func() { f.Encode() }))
		decUS = append(decUS, 1e3*e.tr.timed("wire.decode", 0, 0, func() { _, err = coord.DecodeExpandResponse(c.resp) }))
		if err != nil {
			return fmt.Errorf("captured expand response: %w", err)
		}
		if f.Round == 1 && int(f.Shard) == len(cand) {
			cand, candEpoch = append(cand, c.req), f.Epoch
		}
		lastResp = c.resp
	}
	m.set("wire.encode_us_p50", median(encUS), len(encUS))
	m.set("wire.decode_us_p50", median(decUS), len(decUS))

	dir, err := os.MkdirTemp(e.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lo, hi := coord.PartitionRange(in.vertices, clusterShards, 0)
	ck := &coord.Checkpoint{Epoch: 1, Round: 2, Source: in.pool[0], Lo: lo, Hi: hi, Depth: make([]int32, hi-lo), Resp: lastResp}
	for v := range ck.Depth {
		ck.Depth[v] = int32(in.oracle[0].depth[int(lo)+v])
	}
	var saveMS []float64
	for i := 0; i < 20; i++ {
		saveMS = append(saveMS, e.tr.timed("checkpoint.save", 0, 0, func() { err = coord.SaveCheckpoint(dir, ck) }))
		if err != nil {
			return err
		}
	}
	m.set("checkpoint.save_ms_p50", median(saveMS), len(saveMS))
	fi, err := os.Stat(filepath.Join(dir, "shard.ckpt"))
	if err != nil {
		return err
	}
	m.set("checkpoint.bytes", float64(fi.Size()), 1)

	if !journal {
		return nil
	}
	j, err := coord.OpenJournal(filepath.Join(dir, "journal"), 0)
	if err != nil {
		return err
	}
	defer j.Close()
	var appendMS []float64
	for i := 0; i < 20; i++ {
		st := &coord.EpochState{Epoch: candEpoch, Fence: 1, Source: in.pool[0], Round: 1, Cand: cand}
		appendMS = append(appendMS, e.tr.timed("journal.append", 0, 0, func() { err = j.AppendEpoch(st) }))
		if err != nil {
			return err
		}
	}
	m.set("journal.append_ms_p50", median(appendMS), len(appendMS))
	return nil
}
