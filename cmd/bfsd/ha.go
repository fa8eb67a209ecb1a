package main

// High-availability coordinator plumbing: the journaled active
// coordinator and the lease-watching standby share one coordServer. The
// active publishes a fencing-token lease into its coord.Journal and
// renews it every TTL/3; every round request carries the token, so
// shards reject a coordinator whose lease was taken over (ErrFenced →
// deposed). The standby mirrors the journal two ways — it polls
// GET /cluster/state (which also registers it for pushes) and receives
// best-effort POST /cluster/mirror pushes of the whole state after each
// append — and when the journaled lease expires unrenewed it bumps the
// token, opens the journaled shard assignment, and Resumes the in-flight
// epoch from the journaled round candidates instead of restarting it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"fastbfs/cluster/coord"
)

// coordServer is the shared serving state of an active or standby
// coordinator. cs.mu serializes traversals (the round protocol is
// one-at-a-time) and guards the activation/deposition transitions.
type coordServer struct {
	mu      sync.Mutex
	co      *coord.Coordinator
	deposed bool

	journal  *coord.Journal
	fence    uint64
	leaseTTL time.Duration
	holder   string // own advertised URL (lease holder, standby address)

	standbyMu  sync.Mutex
	standbyURL string
	mirrorCh   chan struct{} // capacity 1: coalesced wakeups of mirrorPusher
}

func newCoordServer(addr string, cf clusterFlags) *coordServer {
	ttl := cf.leaseTTL
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	return &coordServer{
		leaseTTL: ttl,
		holder:   selfURL(addr),
		mirrorCh: make(chan struct{}, 1),
	}
}

// selfURL turns a listen address into the URL peers can reach it at.
func selfURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

// publishLease journals a fresh lease for this coordinator's token.
func (cs *coordServer) publishLease() error {
	return cs.journal.AppendLease(&coord.Lease{
		Token:   cs.fence,
		Expires: time.Now().Add(cs.leaseTTL).UnixNano(),
		Holder:  cs.holder,
	})
}

func (cs *coordServer) isDeposed() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.deposed
}

// renewLoop keeps the lease alive while this coordinator is in charge,
// renewing every TTL/3. A coordinator that stops renewing (crashed, or
// paused past its TTL) loses the lease to the standby.
func (cs *coordServer) renewLoop(ctx context.Context) {
	t := time.NewTicker(cs.leaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if cs.isDeposed() {
			return
		}
		if err := cs.publishLease(); err != nil {
			log.Printf("coordinator: lease renewal: %v", err)
		}
	}
}

// mirrorHook is installed as Journal.Mirror and must not block (it runs
// under the journal lock): it only wakes mirrorPusher, whose every push
// carries the whole state, so a coalesced wakeup never loses a record.
func (cs *coordServer) mirrorHook() {
	select {
	case cs.mirrorCh <- struct{}{}:
	default:
	}
}

// mirrorPusher sends the journal's state to the registered standby after
// every append, best effort.
func (cs *coordServer) mirrorPusher(ctx context.Context) {
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		select {
		case <-ctx.Done():
			return
		case <-cs.mirrorCh:
		}
		cs.standbyMu.Lock()
		target := cs.standbyURL
		cs.standbyMu.Unlock()
		if target == "" {
			continue
		}
		resp, err := client.Post(target+"/cluster/mirror", "application/octet-stream", bytes.NewReader(cs.stateFrames()))
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
			resp.Body.Close()
		}
	}
}

// activate opens the coordinator over the given shard set and, when a
// journal records an unfinished epoch, resumes it before any new query
// is admitted. Held under cs.mu so /cluster/bfs and /readyz observe
// either "not assembled" or a fully caught-up coordinator.
func (cs *coordServer) activate(ctx context.Context, cfg coord.Config) error {
	cfg.Fence = cs.fence
	cfg.Journal = cs.journal
	co, err := coord.Open(ctx, cfg)
	if err != nil {
		return err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.co = co
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	log.Printf("cluster assembled: %d shard URLs in %d groups x %d replicas, %d vertices",
		len(cfg.Shards), len(cfg.Shards)/replicas, replicas, co.NumVertices())
	if cs.journal == nil {
		return nil
	}
	res, err := co.Resume(ctx)
	switch {
	case err == nil && res == nil:
		// No unfinished epoch journaled.
	case err == nil:
		log.Printf("coordinator: resumed in-flight epoch %d to completion: visited %d, rounds %d, epoch restarts %d, failovers %d",
			res.Epoch, res.Visited, res.Rounds, res.EpochRestarts, res.Failovers)
	case errors.Is(err, coord.ErrFenced):
		cs.deposed = true
		return err
	default:
		log.Printf("coordinator: resuming journaled epoch: %v", err)
	}
	return nil
}

// handleBFS runs one distributed traversal. A deposed coordinator
// answers 409 — callers must move to the coordinator that fenced it.
func (cs *coordServer) handleBFS(w http.ResponseWriter, r *http.Request) {
	var req clusterBFSRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.deposed {
		http.Error(w, "coordinator deposed: a newer coordinator holds the lease", http.StatusConflict)
		return
	}
	if cs.co == nil {
		http.Error(w, "cluster not assembled", http.StatusServiceUnavailable)
		return
	}
	start := time.Now()
	res, err := cs.co.Run(r.Context(), req.Source)
	if err != nil {
		if errors.Is(err, coord.ErrFenced) {
			cs.deposed = true
			log.Printf("coordinator: deposed mid-query: %v", err)
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if errors.Is(err, coord.ErrDiverged) {
			// Replicas answered but disagreed with no quorum to arbitrate:
			// the upstream response is untrustworthy, which is exactly what
			// 502 means. Serving either answer would be a coin flip.
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := clusterBFSResponse{
		Source: res.Source, Visited: res.Visited, Rounds: res.Rounds,
		ClaimedPerRound: res.ClaimedPerRound, Epoch: res.Epoch,
		Incomplete: res.Incomplete, DeadShards: res.DeadShards,
		Retries: res.Retries, EpochRestarts: res.EpochRestarts,
		Failovers: res.Failovers, Divergences: res.Divergences,
		Hedges: res.Hedges, HedgeWins: res.HedgeWins,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	if req.IncludeDepth {
		out.Depth = res.Depth
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Incomplete {
		// A degraded answer is typed, not hidden: 206 tells callers
		// the reachable subset excludes dead groups' vertices.
		w.WriteHeader(http.StatusPartialContent)
	}
	json.NewEncoder(w).Encode(&out)
}

func (cs *coordServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	cs.mu.Lock()
	co, deposed := cs.co, cs.deposed
	cs.mu.Unlock()
	switch {
	case deposed:
		http.Error(w, "deposed", http.StatusServiceUnavailable)
	case co == nil:
		http.Error(w, "cluster not assembled", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ok")
	}
}

// handleState serves the journal's accumulated state (stateFrames). A
// standby query parameter registers the caller for mirror pushes.
func (cs *coordServer) handleState(w http.ResponseWriter, r *http.Request) {
	if cs.journal == nil {
		http.Error(w, "no state journal (start with -state-dir)", http.StatusServiceUnavailable)
		return
	}
	if sb := r.URL.Query().Get("standby"); sb != "" {
		cs.standbyMu.Lock()
		if cs.standbyURL != sb {
			log.Printf("coordinator: standby registered at %s", sb)
		}
		cs.standbyURL = sb
		cs.standbyMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(cs.stateFrames())
}

// stateFrames encodes the journal's accumulated state as concatenated
// length-prefixed frames (lease, assignment, epoch).
func (cs *coordServer) stateFrames() []byte {
	st := cs.journal.State()
	var out []byte
	if st.Lease != nil {
		out = coord.AppendFrame(out, st.Lease.Encode())
	}
	if st.Assignment != nil {
		out = coord.AppendFrame(out, st.Assignment.Encode())
	}
	if st.Epoch != nil {
		out = coord.AppendFrame(out, st.Epoch.Encode())
	}
	return out
}

// applyState folds a peer's stateFrames into the journal and returns the
// first error; stale records are absorbed silently (the fold is monotone).
func (cs *coordServer) applyState(body []byte) error {
	frames, err := coord.SplitFrames(body)
	for _, rec := range frames {
		if _, aerr := cs.journal.Apply(rec); err == nil {
			err = aerr
		}
	}
	return err
}

// handleMirror accepts one pushed state and folds it in.
func (cs *coordServer) handleMirror(w http.ResponseWriter, r *http.Request) {
	if cs.journal == nil {
		http.Error(w, "no state journal", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
	if err == nil {
		err = cs.applyState(body)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintln(w, "ok")
}

// standbyLoop mirrors the active coordinator's journal and takes over
// when its lease expires unrenewed. Returns once promoted (or on ctx
// cancellation).
func (cs *coordServer) standbyLoop(ctx context.Context, cf clusterFlags) {
	poll := cs.leaseTTL / 4
	if poll < 200*time.Millisecond {
		poll = 200 * time.Millisecond
	}
	client := &http.Client{Timeout: 2 * time.Second}
	stateURL := cf.standbyOf + "/cluster/state?standby=" + url.QueryEscape(cs.holder)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		// Poll the active's state; the query parameter registers us for
		// mirror pushes, so per-round epoch records arrive between polls.
		if resp, err := client.Get(stateURL); err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				_ = cs.applyState(body) // best effort: the next poll or push retries
			}
		}
		st := cs.journal.State()
		if st.Assignment == nil || st.Lease == nil {
			continue // nothing to take over yet
		}
		now := time.Now().UnixNano()
		if now <= st.Lease.Expires {
			continue
		}
		log.Printf("standby: lease token %d (holder %s) expired %v ago; taking over",
			st.Lease.Token, st.Lease.Holder, time.Duration(now-st.Lease.Expires).Round(time.Millisecond))
		cs.fence = st.Lease.Token + 1
		if err := cs.publishLease(); err != nil {
			log.Printf("standby: publishing takeover lease: %v", err)
			continue
		}
		cfg := clusterCoordConfig(cf)
		cfg.Shards = st.Assignment.URLs
		cfg.Replicas = int(st.Assignment.Replicas)
		if err := cs.activate(ctx, cfg); err != nil {
			if errors.Is(err, coord.ErrFenced) {
				log.Printf("standby: fenced during takeover (an even newer coordinator exists); standing down")
				return
			}
			log.Printf("standby: takeover failed: %v; retrying", err)
			continue
		}
		log.Printf("standby: takeover complete; serving as coordinator (fence %d)", cs.fence)
		go cs.renewLoop(ctx)
		go cs.mirrorPusher(ctx)
		return
	}
}

// clusterCoordConfig builds the coord.Config shared by the active
// coordinator and a promoted standby (everything but the shard set).
func clusterCoordConfig(cf clusterFlags) coord.Config {
	return coord.Config{
		Replicas:          cf.replicas,
		RPCTimeout:        cf.rpcTimeout,
		MaxAttempts:       cf.maxAttempts,
		RecoveryBudget:    cf.recoveryBudget,
		HeartbeatInterval: cf.heartbeat,
		AuditReplicas:     true,
		Backoff:           coord.Backoff{Base: 25 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 1},
	}
}

// runStandbyMode runs a standby coordinator: it mirrors the active's
// journal into its own -state-dir and promotes itself when the lease
// expires, finishing any in-flight epoch from the journaled round
// state. Blocks until SIGINT/SIGTERM.
func runStandbyMode(addr string, cf clusterFlags) error {
	if cf.stateDir == "" {
		return errors.New("-standby-of requires -state-dir for the mirrored journal")
	}
	cs := newCoordServer(addr, cf)
	j, err := openCoordJournal(cf.stateDir)
	if err != nil {
		return err
	}
	defer j.Close()
	cs.journal = j
	j.Mirror = cs.mirrorHook // if a further standby registers with us after promotion

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /readyz", cs.handleReadyz)
	mux.HandleFunc("POST /cluster/bfs", cs.handleBFS)
	mux.HandleFunc("GET /cluster/state", cs.handleState)
	mux.HandleFunc("POST /cluster/mirror", cs.handleMirror)

	server := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("standby coordinator listening on %s (watching %s, lease TTL %v)", addr, cf.standbyOf, cs.leaseTTL)
		errCh <- server.ListenAndServe()
	}()

	ctx, stop := signalContext()
	defer stop()
	go cs.standbyLoop(ctx, cf)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return server.Shutdown(sctx)
}
