// Example service demonstrates the fastbfs traversal query service end
// to end, in one process: it starts a bfsd-style HTTP server over an
// RMAT graph, fires waves of concurrent JSON clients at it, and prints
// how the scheduler served them — how many queries rode a batched
// multi-source sweep, how many coalesced onto an in-flight traversal,
// and how many hit the result cache — before draining gracefully.
//
// Run with:
//
//	go run ./examples/service
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"fastbfs/graph/gen"
	"fastbfs/serve"
)

func main() {
	g, err := gen.RMAT(gen.Graph500Params(14, 16), 1)
	if err != nil {
		log.Fatal(err)
	}
	svc := serve.New(serve.Config{
		BatchThreshold: 4,
		CacheEntries:   16,
	})
	if err := svc.AddGraph("rmat", g); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: serve.NewHandler(svc)}
	go func() { _ = server.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("bfsd-style service on %s serving %d vertices / %d edges\n",
		base, g.NumVertices(), g.NumEdges())

	// Wave 1: 64 distinct sources at once — the scheduler batches them
	// into bit-parallel sweeps.
	query := func(req serve.Request) (*serve.Response, error) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var out serve.Response
		return &out, json.NewDecoder(resp.Body).Decode(&out)
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	batched := 0
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := uint32((c * 977) % g.NumVertices())
			resp, err := query(serve.Request{Graph: "rmat", Source: src, Targets: []uint32{0}})
			if err != nil {
				log.Printf("client %d: %v", c, err)
				return
			}
			mu.Lock()
			if resp.Batched {
				batched++
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	fmt.Printf("wave 1: 64 distinct sources in %v (%d served by batched sweeps)\n",
		time.Since(start).Round(time.Millisecond), batched)

	// Wave 2: 32 clients, 8 distinct sources — coalescing and caching
	// absorb the duplicates.
	start = time.Now()
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := uint32((c % 8) * 1013)
			if _, err := query(serve.Request{Graph: "rmat", Source: src}); err != nil {
				log.Printf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("wave 2: 32 clients over 8 sources in %v\n", time.Since(start).Round(time.Millisecond))

	// A path query rides the same cached traversals.
	target := uint32(4242)
	resp, err := query(serve.Request{Graph: "rmat", Source: 0, PathTo: &target})
	if err != nil {
		log.Fatal(err)
	}
	if resp.PathFound != nil && *resp.PathFound {
		fmt.Printf("path 0→%d: %d hops (cached=%v)\n", target, len(resp.Path)-1, resp.Cached)
	} else {
		fmt.Printf("vertex %d unreachable from 0\n", target)
	}

	st := svc.Stats()
	fmt.Printf("stats: requests=%d sweeps=%d batched=%d coalesced=%d cache_hits=%d engine_runs=%d\n",
		st.Requests, st.Sweeps, st.BatchedQueries, st.Coalesced, st.CacheHits, st.EngineRuns)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = server.Shutdown(ctx)
	if err := svc.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
