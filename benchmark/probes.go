package main

// The traced pass: the benchmark calls each layer's public functions
// itself, in this process, and records a span around every call. A workload's
// traced pass probes only the layers that workload exercises; the others
// report 0, which is the "predicted no change" row of README.md's table.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/index"
	"fastbfs/internal/membw"
	"fastbfs/internal/msbfs"
	"fastbfs/internal/numa"
	"fastbfs/serve"
	"fastbfs/tune"
)

// probeGraph times graph.Load, graph.LoadMmap and the transpose, and
// returns the loaded graph with its in-adjacency cached.
func probeGraph(e *env, in *inputs, m metrics) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	loadMS := e.tr.timed("graph.load", 0, 0, func() { g, err = graph.Load(in.path) })
	if err != nil {
		return nil, err
	}
	m.set("graph.load_ms", loadMS, 1)
	m.set("graph.load_mb_s", float64(in.fileBytes)/1e6/(loadMS/1e3), 1)
	m.set("graph.mmap_load_ms", e.tr.timed("graph.load_mmap", 0, 0, func() { _, err = graph.LoadMmap(in.path) }), 1)
	if err != nil {
		return nil, err
	}
	m.set("graph.transpose_ms", e.tr.timed("graph.transpose", 0, 0, func() { bfs.InAdjacency(g) }), 1)
	return g, nil
}

func setTune(m metrics, prof *tune.Profile, calibrateMS float64) {
	m.set("tune.calibrate_ms", calibrateMS, 1)
	hybrid := 0.0
	if prof.Hybrid {
		hybrid = 1
	}
	m.set("tune.hybrid_enabled", hybrid, 1)
}

// probeCore measures bfs.Engine from outside: plain runs give the run time
// the other layers' overheads are measured against; instrumented runs
// (Options.Instrument, StepHook timestamps) give the phase split, the
// per-level cost and the work counters. It returns both windows' ops.
func probeCore(e *env, g *graph.Graph, in *inputs, prof *tune.Profile, budget time.Duration, m metrics) (*window, error) {
	opts := prof.Apply(bfs.Default(1))
	var eng *bfs.Engine
	var err error
	m.set("core.new_engine_ms", e.tr.timed("core.new_engine", 0, 0, func() { eng, err = bfs.NewEngine(g, opts) }), 1)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(in.pool[0]); err != nil { // untimed warm-up
		return nil, err
	}
	plain := runEngineWindow(eng, in, budget/2, nil, nil)
	plainMS := median(plain.latencies())
	m.set("core.run_ms_p50", plainMS, len(plain.ops))

	var stamps []int64
	opts.Instrument = true
	opts.StepHook = func(int) { stamps = append(stamps, e.tr.now()) }
	ieng, err := bfs.NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	if _, err := ieng.Run(in.pool[0]); err != nil {
		return nil, err
	}
	var runMS, p1, p2, rearr, overhead, levels, bottomUp, examined []float64
	var sumExamined, sumTeps, sumDup, sumVisited, sumBytes float64
	stamps = stamps[:0]
	traced := runEngineWindow(ieng, in, budget/2, e.tr, func(run engineRun) {
		prev := run.start
		for _, s := range stamps {
			e.tr.add("core.step", prev, s, run.span, run.op)
			prev = s
		}
		stamps = stamps[:0]
		r, ms, t := run.res, run.ms, run.res.Trace
		ph1, ph2, rr := msOf(t.TimePhase1), msOf(t.TimePhase2), msOf(t.TimeRearr)
		runMS, p1, p2, rearr = append(runMS, ms), append(p1, ph1), append(p2, ph2), append(rearr, rr)
		overhead = append(overhead, ms-ph1-ph2-rr)
		levels = append(levels, float64(r.Steps))
		bu := 0
		for _, d := range r.Directions {
			if d == bfs.DirBottomUp {
				bu++
			}
		}
		bottomUp = append(bottomUp, float64(bu))
		examined = append(examined, float64(r.EdgesTraversed))
		sumExamined += float64(r.EdgesTraversed)
		sumTeps += float64(in.oracle[run.root].teps)
		sumDup += float64(t.TotalDup)
		sumVisited += float64(r.Visited)
		for _, st := range numa.Structures() {
			sumBytes += float64(t.Traffic.Total(st))
		}
	})
	m.set("tune.pred_over_meas", ratio(prof.PredictedMTEPS, hmeanMTEPS(plain.ops)), len(plain.ops))
	plain.merge(traced)
	n := len(runMS)
	m.set("core.phase1_ms", median(p1), n)
	m.set("core.phase2_ms", median(p2), n)
	m.set("core.rearr_ms", median(rearr), n)
	m.set("core.step_overhead_ms", median(overhead), n)
	m.set("core.levels", median(levels), n)
	m.set("core.us_per_level", ratio(plainMS*1e3, median(levels)), n)
	m.set("core.bottomup_levels", median(bottomUp), n)
	m.set("core.edges_examined", median(examined), n)
	m.set("core.examined_per_teps_edge", ratio(sumExamined, sumTeps), n)
	m.set("core.dup_append_share", ratio(sumDup, sumVisited), n)
	m.set("core.bytes_per_edge_computed", ratio(sumBytes, sumExamined), n)
	m.set("core.serial_ms_p50", in.serialMS(e.sz.serialRoots), e.sz.serialRoots)
	m.set("trace.overhead_share", ratio(median(runMS), plainMS)-1, n)
	return plain, nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceOffline probes the layers the offline workloads use: graph, tune,
// core, plus the host's memory bandwidth from the same run.
func traceOffline(e *env, in *inputs) (metrics, *window, error) {
	m := metrics{}
	in.dropGraph()
	g, err := probeGraph(e, in, m)
	if err != nil {
		return nil, nil, err
	}
	defer bfs.ReleaseInAdjacency(g)
	var prof *tune.Profile
	calMS := e.tr.timed("tune.calibrate", 0, 0, func() { prof = tune.Calibrate(g, tune.Options{}) })
	setTune(m, prof, calMS)
	win, err := probeCore(e, g, in, prof, e.window(1), m)
	if err != nil {
		return nil, nil, err
	}
	bw := membw.Measure(membw.Options{BufferBytes: 64 << 20, MinDuration: 50 * time.Millisecond})
	m.set("host.membw_gb_s", bw.SeqReadGBs, 1)
	return m, win, nil
}

// probeMSBFS times multi-source sweeps of widths 8 and 64 over the first
// pool sources, with the kernel the serve layer would pick for the profile.
func probeMSBFS(e *env, g *graph.Graph, in *inputs, prof *tune.Profile, m metrics) error {
	runMS := m["core.run_ms_p50"].value
	for _, w := range []int{8, 64} {
		sources := in.pool[:w]
		var ms, sharing []float64
		for rep := 0; rep < 3; rep++ {
			var res *msbfs.Result
			var err error
			ms = append(ms, e.tr.timed("msbfs.sweep_w"+strconv.Itoa(w), 0, 0, func() {
				if prof.Hybrid {
					res, err = msbfs.RunHybridContext(context.Background(), g, bfs.InAdjacency(g), sources, 0)
				} else {
					res, err = msbfs.RunContext(context.Background(), g, sources, 0)
				}
			}))
			if err != nil {
				return err
			}
			for lane := range sources {
				for v, want := range in.oracle[lane].depth {
					if got := res.Depth(lane, uint32(v)); got != int32(want) {
						return fmt.Errorf("msbfs sweep: lane %d vertex %d depth %d, serial %d", lane, v, got, want)
					}
				}
			}
			sharing = append(sharing, ratio(float64(res.LaneEdges), float64(res.EdgesScanned)))
		}
		suffix := "_w" + strconv.Itoa(w)
		m.set("msbfs.sweep_ms"+suffix, median(ms), len(ms))
		m.set("msbfs.sharing_factor"+suffix, median(sharing), len(sharing))
		m.set("msbfs.batch_gain"+suffix, ratio(float64(w)*runMS, median(ms)), len(ms))
	}
	return nil
}

// probeIndex builds the landmark index directly and joins labels for the
// workload's own (source, target) pair stream.
func probeIndex(e *env, g *graph.Graph, in *inputs, m metrics) error {
	var ix *index.Index
	var err error
	m.set("index.build_ms", e.tr.timed("index.build", 0, 0, func() {
		ix, err = index.Build(context.Background(), g, index.Options{Landmarks: indexLandmarks, Policy: index.PolicyDegree, In: bfs.InAdjacency(g)})
	}), 1)
	if err != nil {
		return err
	}
	m.set("index.label_mb", float64(ix.LabelBytes())/(1<<20), 1)
	m.set("index.entries_per_vertex", float64(ix.Entries())/float64(in.vertices), 1)
	walk := newWalker(in, e.seed, 0, 1)
	const pairs = 4096
	ns := make([]float64, 0, pairs)
	exact := 0
	for i := 0; i < pairs; i++ {
		idx, t := walk.next(), walk.target()
		t0 := time.Now()
		a := ix.Query(in.pool[idx], t)
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		if a.Exact {
			exact++
			if a.Dist != int32(in.oracle[idx].depth[t]) {
				return fmt.Errorf("index: certified distance %d for (%d,%d), serial %d", a.Dist, in.pool[idx], t, in.oracle[idx].depth[t])
			}
		}
	}
	m.set("index.query_ns_p50", median(ns), pairs)
	m.set("index.exact_share", float64(exact)/pairs, pairs)
	return nil
}

// traceServe probes the layers behind a serve-* workload with an
// in-process twin of the daemon: serve.New with bfsd's shipped defaults
// behind httptest, driven by the workload's own clients.
func traceServe(e *env, spec serveSpec, in *inputs) (metrics, *window, error) {
	m := metrics{}
	in.dropGraph()
	g, err := probeGraph(e, in, m)
	if err != nil {
		return nil, nil, err
	}
	defer bfs.ReleaseInAdjacency(g)

	svc := serve.New(serve.Config{AutoTune: true, ScrubInterval: time.Minute}) // bfsd's flag defaults
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	e.tr.timed("serve.load_graph", 0, 0, func() { _, err = svc.LoadGraph(graphName, in.path) })
	if err != nil {
		return nil, nil, err
	}
	prof := svc.TuneProfile(graphName)
	if prof == nil {
		return nil, nil, fmt.Errorf("twin service has no tuning profile for %q", graphName)
	}
	setTune(m, prof, prof.CalibrationMS)

	if _, err := probeCore(e, g, in, prof, e.window(0.25), m); err != nil {
		return nil, nil, err
	}
	runMS := m["core.run_ms_p50"].value
	if spec.batches() || spec.distance {
		if err := probeMSBFS(e, g, in, prof, m); err != nil {
			return nil, nil, err
		}
	}
	if spec.distance {
		if err := probeIndex(e, g, in, m); err != nil {
			return nil, nil, err
		}
		e.tr.timed("serve.build_index", 0, 0, func() { err = buildTwinIndex(svc) })
		if err != nil {
			return nil, nil, err
		}
	}

	// The same service over loopback HTTP, with a span around the handler.
	handler := serve.NewHandler(svc)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		start := e.tr.now()
		handler.ServeHTTP(w, r)
		e.tr.add("serve.handler", start, e.tr.now(), 0, op)
	}))
	defer srv.Close()

	// One caller asks in-process (Service.Query) or over HTTP, a coin toss
	// per request so both see the same sources and the same moments: first
	// misses along the pool walk, then hits on one cached source. HTTP's
	// overhead is the difference of the medians.
	walk := newWalker(in, e.seed, 0, 1)
	one := newQueryClients(e, serveSpec{clients: 1, distance: spec.distance}, in, srv.URL)[0]
	ask := func(name string, idx int, req serve.Request) (ms float64, overHTTP bool, err error) {
		if walk.tgts.Intn(2) == 1 {
			win := &window{}
			ms = one.send(win, idx, req)
			if win.failed > 0 {
				err = fmt.Errorf("%s", win.firstErr)
			}
			return ms, true, err
		}
		var resp *serve.Response
		ms = e.tr.timed(name, 0, e.tr.newOp(), func() { resp, err = svc.Query(context.Background(), req) })
		if err == nil {
			err = checkReply(&req, resp, in.oracle[idx])
		}
		return ms, false, err
	}
	var missMS, missRTT, hitMS, hitRTT []float64
	for deadline := time.Now().Add(e.window(0.3)); time.Now().Before(deadline); {
		idx := walk.next()
		ms, overHTTP, err := ask("serve.query_miss", idx, serve.Request{Graph: graphName, Source: in.pool[idx], Targets: []uint32{walk.target()}, DistanceOnly: spec.distance})
		if err != nil {
			return nil, nil, err
		}
		if overHTTP {
			missRTT = append(missRTT, ms)
		} else {
			missMS = append(missMS, ms)
		}
	}
	hot := walk.next()
	hotReq := serve.Request{Graph: graphName, Source: in.pool[hot], Targets: []uint32{walk.target()}}
	for i := 0; i < 2001; i++ {
		ms, overHTTP, err := ask("serve.query_hit", hot, hotReq)
		switch {
		case err != nil:
			return nil, nil, err
		case i == 0: // the miss that fills the cache
		case overHTTP:
			hitRTT = append(hitRTT, ms)
		default:
			hitMS = append(hitMS, ms)
		}
	}
	m.set("serve.query_miss_ms_p50", median(missMS), len(missMS))
	m.set("serve.miss_overhead_ms", median(missMS)-runMS, len(missMS))
	m.set("serve.query_hit_us_p50", median(hitMS)*1e3, len(hitMS))
	m.set("http.miss_overhead_us", (median(missRTT)-median(missMS))*1e3, len(missRTT))
	m.set("http.hit_overhead_us_p50", (median(hitRTT)-median(hitMS))*1e3, len(hitRTT))
	encodeMS, err := allDepthsEncodeMS(e, svc, srv.URL, in.pool[hot])
	if err != nil {
		return nil, nil, err
	}
	m.set("http.encode_all_depths_ms", encodeMS, 1)

	// The workload's own clients, closed loop, with /stats read around it.
	clients := newQueryClients(e, spec, in, srv.URL)
	op := func(c int, win *window) { clients[c].op(win) }
	// Warm up until the probes above have been flushed out of the LRU.
	for warmed := 0; warmed < 2*lruEntries; {
		warmed += len(closedLoop(spec.clients, e.window(0.1), op).ops)
	}
	before := svc.Stats()
	win := closedLoop(spec.clients, e.window(0.35), op)
	after := svc.Stats()
	e.tr.linkByOp("serve.handler", "http.request")
	d := deltaOf(&before, &after)
	if err := d.checkSeparation(spec); err != nil {
		win.fail("%v", err)
	}
	var sizes []float64
	for _, c := range clients {
		sizes = append(sizes, c.sizes...)
	}
	n := int(d.requests)
	m.set("http.resp_bytes_p50", median(sizes), len(sizes))
	m.set("serve.cache_hit_share", d.cacheHitShare(), n)
	m.set("serve.coalesced_share", ratio(d.coalesced, d.requests), n)
	m.set("serve.batched_share", d.batchedShare(), n)
	m.set("serve.lanes_per_sweep", ratio(d.batched, d.sweeps), int(d.sweeps))
	m.set("serve.engine_runs", d.engineRuns, n)
	m.set("serve.rejected", d.rejected, n)
	m.set("serve.shed", d.shed, n)
	m.set("serve.expired", d.expired, n)
	m.set("index.fallback_share", ratio(d.indexFallbacks, d.indexHits+d.indexFallbacks), n)
	for _, ts := range after.Tunings {
		m.set("serve.measured_mteps", ts.MeasuredMTEPS, n)
	}
	// The layers of the path this workload takes (hit path for serve-hot,
	// miss path otherwise), each measured alone with one caller, over the
	// closed loop's median latency under this workload's clients.
	sum := runMS + m["serve.miss_overhead_ms"].value + m["http.miss_overhead_us"].value/1e3
	if spec.hot {
		sum = (m["serve.query_hit_us_p50"].value + m["http.hit_overhead_us_p50"].value) / 1e3
	}
	m.set("serve.sum_check", ratio(sum, median(win.latencies())), len(win.ops))
	return m, win, nil
}

// buildTwinIndex mounts the index in the twin the way startServe does in
// the daemon.
func buildTwinIndex(svc *serve.Service) error {
	if _, err := svc.BuildIndex(graphName, serve.IndexOptions{Landmarks: indexLandmarks, Policy: "degree"}); err != nil {
		return err
	}
	for deadline := time.Now().Add(readyTimeout); ; time.Sleep(pollInterval) {
		st, err := svc.IndexStatus(graphName)
		if err != nil {
			return err
		}
		if st.State == serve.IndexReady {
			return nil
		}
		if st.State == serve.IndexFailed || time.Now().After(deadline) {
			return fmt.Errorf("twin index build: state %q %s", st.State, st.Error)
		}
	}
}

// allDepthsEncodeMS is what HTTP adds to one all_depths reply from a
// cached source: the server's JSON encode and the loopback transfer (the
// client discards the body undecoded).
func allDepthsEncodeMS(e *env, svc *serve.Service, base string, source uint32) (float64, error) {
	req := serve.Request{Graph: graphName, Source: source, AllDepths: true}
	var err error
	inproc := e.tr.timed("serve.query_all_depths", 0, 0, func() { _, err = svc.Query(context.Background(), req) })
	if err != nil {
		return 0, err
	}
	body, _ := json.Marshal(&req)
	over := e.tr.timed("http.request_all_depths", 0, 0, func() {
		var hreq *http.Request
		if hreq, err = http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body)); err != nil {
			return
		}
		var resp *http.Response
		if resp, err = http.DefaultClient.Do(hreq); err != nil {
			return
		}
		defer resp.Body.Close()
		if _, err = io.Copy(io.Discard, resp.Body); err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("all_depths query: HTTP %d", resp.StatusCode)
		}
	})
	return over - inproc, err
}
