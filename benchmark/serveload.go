package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fastbfs/internal/xrand"
	"fastbfs/serve"
)

// serveSpec distinguishes the four serve-* workloads.
type serveSpec struct {
	clients  int
	hot      bool // Zipf over the hot sources, 4 targets; else the all-miss walk, 1 target
	distance bool // distance_only queries against a mounted index
}

// batches reports whether the workload keeps at least BatchThreshold
// sources in flight, which is what it takes to reach the MS-BFS batcher.
func (s serveSpec) batches() bool { return s.clients >= batchThreshold }

const (
	batchThreshold = 4  // bfsd's -batchmin default
	lruEntries     = 32 // bfsd's -cache default
	indexLandmarks = 64
	opHeader       = "X-Bench-Op" // carries the op id to the traced twin's middleware
)

// closedLoop runs n callers, each issuing op back to back until d has
// passed (a caller sends its next request only after the previous reply,
// as programmatic BFS clients do), and merges what they recorded.
func closedLoop(n int, d time.Duration, op func(caller int, win *window)) *window {
	wins := make([]*window, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wins[c] = &window{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				op(c, wins[c])
			}
		}(c)
	}
	wg.Wait()
	out := &window{elapsedS: time.Since(start).Seconds()}
	for _, w := range wins {
		out.merge(w)
	}
	return out
}

// queryClient is one closed-loop caller of POST /query. Its stream is a
// function of (seed, client id) only.
type queryClient struct {
	spec serveSpec
	in   *inputs
	http *http.Client
	url  string
	walk *walker
	zipf *xrand.Zipf
	tr   *tracer // traced twin only

	sizes []float64 // reply sizes, traced twin only
}

func newQueryClients(e *env, spec serveSpec, in *inputs, base string) []*queryClient {
	hc := newLoadClient(spec.clients)
	cs := make([]*queryClient, spec.clients)
	for c := range cs {
		cs[c] = &queryClient{
			spec: spec, in: in, http: hc, url: base + "/query", tr: e.tr,
			walk: newWalker(in, e.seed, c, spec.clients),
			zipf: xrand.NewZipf(xrand.New(streamSeed(e.seed, streamZipf, c)), e.sz.hot, 1.1),
		}
	}
	return cs
}

// next draws the client's next request: a pool index and the body.
func (c *queryClient) next() (int, serve.Request) {
	req := serve.Request{Graph: graphName, DistanceOnly: c.spec.distance}
	var idx int
	if c.spec.hot {
		idx = c.zipf.Next()
		req.Targets = []uint32{c.walk.target(), c.walk.target(), c.walk.target(), c.walk.target()}
	} else {
		idx = c.walk.next()
		req.Targets = []uint32{c.walk.target()}
	}
	req.Source = c.in.pool[idx]
	return idx, req
}

// checkReply compares a /query reply with the serial reference.
func checkReply(req *serve.Request, resp *serve.Response, t *truth) error {
	if resp.Source != req.Source {
		return fmt.Errorf("source %d: reply is for source %d", req.Source, resp.Source)
	}
	if !resp.Index && resp.Visited != t.visited {
		return fmt.Errorf("source %d: visited %d, serial %d", req.Source, resp.Visited, t.visited)
	}
	if req.DistanceOnly && (resp.Exact == nil || !*resp.Exact) {
		return fmt.Errorf("source %d: distance_only reply not marked exact", req.Source)
	}
	if len(resp.Targets) != len(req.Targets) {
		return fmt.Errorf("source %d: %d targets in reply, %d asked", req.Source, len(resp.Targets), len(req.Targets))
	}
	for i, tr := range resp.Targets {
		want := int32(t.depth[req.Targets[i]])
		if tr.Vertex != req.Targets[i] || tr.Depth != want || tr.Reached != (want >= 0) {
			return fmt.Errorf("source %d target %d: depth %d reached %v, serial depth %d",
				req.Source, req.Targets[i], tr.Depth, tr.Reached, want)
		}
	}
	return nil
}

// op draws and sends the client's next request.
func (c *queryClient) op(win *window) {
	idx, req := c.next()
	c.send(win, idx, req)
}

// send sends one request for pool source idx, checks the reply, records
// the sample and returns the latency in ms.
func (c *queryClient) send(win *window, idx int, req serve.Request) float64 {
	body, _ := json.Marshal(&req) // a struct of ints and bools cannot fail to encode
	win.attempted++
	hreq, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		win.fail("%v", err)
		return 0
	}
	var opID int
	var start int64
	if c.tr != nil {
		opID = c.tr.newOp()
		hreq.Header.Set(opHeader, strconv.Itoa(opID))
		start = c.tr.now()
	}
	var resp serve.Response
	t0 := time.Now()
	_, size, err := httpDo(c.http, hreq, &resp)
	el := time.Since(t0)
	if c.tr != nil {
		c.tr.add("http.request", start, c.tr.now(), 0, opID)
		c.sizes = append(c.sizes, float64(size))
	}
	if err == nil {
		err = checkReply(&req, &resp, c.in.oracle[idx])
	}
	if err != nil {
		win.fail("%v", err)
		return 0
	}
	ms := float64(el.Nanoseconds()) / 1e6
	win.add(ms, c.in.oracle[idx].teps)
	return ms
}

// statsDelta is what the daemon's /stats counters say happened between
// two scrapes.
type statsDelta struct {
	requests, cacheHits, coalesced, batched, engineRuns, sweeps float64
	rejected, shed, expired, indexHits, indexFallbacks          float64
}

func deltaOf(a, b *serve.StatsSnapshot) statsDelta {
	return statsDelta{
		requests: float64(b.Requests - a.Requests), cacheHits: float64(b.CacheHits - a.CacheHits),
		coalesced: float64(b.Coalesced - a.Coalesced), batched: float64(b.BatchedQueries - a.BatchedQueries),
		engineRuns: float64(b.EngineRuns - a.EngineRuns), sweeps: float64(b.Sweeps - a.Sweeps),
		rejected: float64(b.Rejected - a.Rejected), shed: float64(b.Shed - a.Shed), expired: float64(b.Expired - a.Expired),
		indexHits: float64(b.IndexHits - a.IndexHits), indexFallbacks: float64(b.IndexFallbacks - a.IndexFallbacks),
	}
}

func (d statsDelta) cacheHitShare() float64 { return ratio(d.cacheHits, d.requests) }

// batchedShare is the share of traversals that ran inside an MS-BFS sweep.
func (d statsDelta) batchedShare() float64 { return ratio(d.batched, d.batched+d.engineRuns) }

// checkSeparation enforces what makes each serve workload the workload it
// claims to be; a violation means the numbers describe something else.
func (d statsDelta) checkSeparation(spec serveSpec) error {
	switch {
	case spec.hot:
		if s := d.cacheHitShare(); s < 0.9 {
			return fmt.Errorf("serve-hot: cache_hit_share %.3f < 0.9", s)
		}
	case spec.batches():
		if s := d.batchedShare(); s < 0.5 {
			return fmt.Errorf("serve-burst: batched_share %.3f < 0.5", s)
		}
	default:
		if s := d.cacheHitShare(); s > 0.01 {
			return fmt.Errorf("all-miss stream: cache_hit_share %.3f > 0.01", s)
		}
		if s := d.batchedShare(); s > 0.01 {
			return fmt.Errorf("2-client stream: batched_share %.3f > 0.01", s)
		}
	}
	if d.rejected+d.shed+d.expired > 0 {
		return fmt.Errorf("daemon rejected %v, shed %v, expired %v queries", d.rejected, d.shed, d.expired)
	}
	return nil
}

// startServe launches bfsd with its shipped defaults on the graph file
// and, for serve-distance, builds and mounts the index. It returns once
// the daemon is ready for the first timed query.
func startServe(e *env, spec serveSpec, in *inputs) (*proc, error) {
	d, err := e.startDaemon("bfsd", "-graph", graphName+"="+in.path)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(); err != nil {
		d.stop()
		return nil, err
	}
	if !spec.distance {
		return d, nil
	}
	body, _ := json.Marshal(serve.IndexOptions{Landmarks: indexLandmarks, Policy: "degree"})
	if _, _, err := httpJSON(http.DefaultClient, http.MethodPost, d.url("/graphs/"+graphName+"/index"), body, nil); err != nil {
		d.stop()
		return nil, err
	}
	deadline := time.Now().Add(readyTimeout)
	for {
		var st serve.IndexStatus
		if _, _, err := httpJSON(http.DefaultClient, http.MethodGet, d.url("/graphs/"+graphName+"/index"), nil, &st); err != nil {
			d.stop()
			return nil, err
		}
		if st.State == serve.IndexReady {
			return d, nil
		}
		if st.State == serve.IndexFailed || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("index build: state %q %s", st.State, st.Error)
		}
		time.Sleep(pollInterval)
	}
}

func scrapeStats(base string) (*serve.StatsSnapshot, error) {
	var st serve.StatsSnapshot
	_, _, err := httpJSON(http.DefaultClient, http.MethodGet, base+"/stats", nil, &st)
	return &st, err
}

func runServe(e *env, spec serveSpec) (metrics, *window, *inputs, error) {
	in, err := makeInputs(e, "rmat-small", e.sz.pool)
	if err != nil {
		return nil, nil, nil, err
	}
	defer in.cleanup()
	if e.tr != nil {
		m, win, err := traceServe(e, spec, in)
		return m, win, in, err
	}
	in.dropGraph()
	// All load comes from this one process on one thread; the daemon keeps
	// the host's other cores.
	runtime.GOMAXPROCS(1)

	m := metrics{}
	d, err := setUp(e, m, func() (*proc, error) { return startServe(e, spec, in) })
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.stop()

	clients := newQueryClients(e, spec, in, d.url(""))
	op := func(c int, win *window) { clients[c].op(win) }
	closedLoop(spec.clients, e.warmup(), op)
	before, err := scrapeStats(d.url(""))
	if err != nil {
		return nil, nil, nil, err
	}
	rss := sampleRSS(d.pid())
	win := closedLoop(spec.clients, e.window(1), op)
	rssMB, err := rss.medianMB()
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := scrapeStats(d.url(""))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := deltaOf(before, after).checkSeparation(spec); err != nil {
		win.fail("%v", err)
	}
	win.requireRate(e.sz.minServeQPS)
	win.endToEndMetrics(m)
	m.set("rss_mb", rssMB, 1)
	return m, win, in, nil
}
