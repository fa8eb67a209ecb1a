package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const clusterShards = 3

// clusterReply is the part of POST /cluster/bfs's reply the benchmark
// checks (cmd/bfsd's clusterBFSResponse).
type clusterReply struct {
	Source          uint32  `json:"source"`
	Visited         int64   `json:"visited"`
	Rounds          int     `json:"rounds"`
	ClaimedPerRound []int64 `json:"claimed_per_round"`
	Incomplete      bool    `json:"incomplete"`
	Retries         int     `json:"retries"`
	EpochRestarts   int     `json:"epoch_restarts"`
	Failovers       int     `json:"failovers"`
	Divergences     int     `json:"divergences"`
	Hedges          int     `json:"hedges"`
}

// check compares a cluster reply with the serial reference. On this
// healthy topology any recovery action is a failure: a reply that needed
// one is not the round protocol's steady state (a shard whose checkpoint
// directory is missing answers 200 with retries and 2.4x the latency).
func (r *clusterReply) check(source uint32, t *truth) error {
	switch {
	case r.Source != source:
		return fmt.Errorf("source %d: reply is for source %d", source, r.Source)
	case r.Incomplete:
		return fmt.Errorf("source %d: incomplete result", source)
	case r.Retries+r.EpochRestarts+r.Failovers+r.Divergences+r.Hedges > 0:
		return fmt.Errorf("source %d: retries %d, epoch restarts %d, failovers %d, divergences %d, hedges %d on a healthy cluster",
			source, r.Retries, r.EpochRestarts, r.Failovers, r.Divergences, r.Hedges)
	case r.Visited != t.visited:
		return fmt.Errorf("source %d: visited %d, serial %d", source, r.Visited, t.visited)
	case r.Rounds != len(t.levels):
		return fmt.Errorf("source %d: %d rounds, serial BFS has %d levels", source, r.Rounds, len(t.levels))
	case !slices.Equal(r.ClaimedPerRound, t.levels):
		return fmt.Errorf("source %d: claimed per round %v, serial level sizes %v", source, r.ClaimedPerRound, t.levels)
	}
	return nil
}

// cluster is the system under test of the cluster workloads.
type cluster struct {
	coord  *proc
	shards []*proc
	state  string // checkpoint and journal directories
}

func (c *cluster) stop() {
	if c.coord != nil {
		c.coord.stop()
	}
	for _, p := range c.shards {
		p.stop()
	}
	os.RemoveAll(c.state)
}

func (c *cluster) pids() []string {
	pids := []string{c.coord.pid()}
	for _, p := range c.shards {
		pids = append(pids, p.pid())
	}
	return pids
}

// startCluster launches 3 x replicas shard daemons, each with a fresh
// checkpoint directory that exists, then the coordinator over them
// (journaling to a state dir when replicated), and returns once the
// cluster is assembled.
func startCluster(e *env, replicas int, in *inputs) (*cluster, error) {
	state, err := os.MkdirTemp(e.outDir, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{state: state}
	var urls []string
	for g := 0; g < clusterShards; g++ {
		for r := 0; r < replicas; r++ {
			name := fmt.Sprintf("shard%d-%d", g, r)
			ckpt := filepath.Join(state, name)
			if err := os.Mkdir(ckpt, 0o755); err != nil {
				c.stop()
				return nil, err
			}
			p, err := e.startDaemon(name, "-graph", in.path,
				"-shard-id", strconv.Itoa(g), "-replica-id", strconv.Itoa(r), "-shards", strconv.Itoa(clusterShards),
				"-checkpoint-dir", ckpt)
			if err != nil {
				c.stop()
				return nil, err
			}
			c.shards = append(c.shards, p)
			urls = append(urls, p.url(""))
		}
	}
	for _, p := range c.shards {
		if err := p.waitReady(); err != nil {
			c.stop()
			return nil, err
		}
	}
	args := []string{"-coordinate", strings.Join(urls, ",")}
	if replicas > 1 {
		args = append(args, "-replicas", strconv.Itoa(replicas), "-state-dir", filepath.Join(state, "coord"))
	}
	if c.coord, err = e.startDaemon("coordinator", args...); err != nil {
		c.stop()
		return nil, err
	}
	if err := c.coord.waitReady(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func runCluster(e *env, replicas int) (metrics, *window, *inputs, error) {
	in, err := makeInputs(e, "rmat-small", e.sz.pool)
	if err != nil {
		return nil, nil, nil, err
	}
	defer in.cleanup()
	if e.tr != nil {
		m, win, err := traceCluster(e, replicas, in)
		return m, win, in, err
	}
	in.dropGraph()
	runtime.GOMAXPROCS(1)

	m := metrics{}
	c, err := setUp(e, m, func() (*cluster, error) { return startCluster(e, replicas, in) })
	if err != nil {
		return nil, nil, nil, err
	}
	defer c.stop()

	// One client: the coordinator serialises epochs.
	hc := newLoadClient(1)
	walk := newWalker(in, e.seed, 0, 1)
	op := func(_ int, win *window) {
		idx := walk.next()
		body, _ := json.Marshal(map[string]uint32{"source": in.pool[idx]})
		win.attempted++
		var reply clusterReply
		t0 := time.Now()
		_, _, err := httpJSON(hc, http.MethodPost, c.coord.url("/cluster/bfs"), body, &reply)
		el := time.Since(t0)
		if err == nil {
			err = reply.check(in.pool[idx], in.oracle[idx])
		}
		if err != nil {
			win.fail("%v", err)
			return
		}
		win.add(float64(el.Nanoseconds())/1e6, in.oracle[idx].teps)
	}
	closedLoop(1, e.warmup(), op)
	rss := sampleRSS(c.pids()...)
	win := closedLoop(1, e.window(1), op)
	rssMB, err := rss.medianMB()
	if err != nil {
		return nil, nil, nil, err
	}
	win.requireRate(e.sz.minClustQPS)
	win.endToEndMetrics(m)
	m.set("rss_mb", rssMB, 1)
	return m, win, in, nil
}
