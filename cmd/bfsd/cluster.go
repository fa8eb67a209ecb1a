package main

// Cluster modes: besides the standalone query daemon, bfsd can run as
// one shard of a distributed BFS cluster (-shard-id/-shards), as the
// cluster's coordinator (-coordinate), or as a standby coordinator
// (-standby-of, see ha.go). Shards own a contiguous 1D vertex partition
// of a shared graph (every shard loads the same graph and serves only
// its slice); the coordinator drives level-synchronous rounds over the
// shards' HTTP API with bitmap-compressed frontier exchange, heartbeat
// failure detection, retried idempotent round messages and checkpointed
// crash recovery (see cluster/coord).
//
//	# three shards + a coordinator over a generated scale-14 RMAT graph
//	bfsd -addr :9001 -shard-id 0 -shards 3 -graph rmat:scale=14 -checkpoint-dir /tmp/s0 &
//	bfsd -addr :9002 -shard-id 1 -shards 3 -graph rmat:scale=14 -checkpoint-dir /tmp/s1 &
//	bfsd -addr :9003 -shard-id 2 -shards 3 -graph rmat:scale=14 -checkpoint-dir /tmp/s2 &
//	bfsd -addr :9000 -coordinate http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//	curl -s -X POST localhost:9000/cluster/bfs -d '{"source":0}'
//
// With -coordinate auto the coordinator instead waits for shard
// processes to announce themselves at POST /cluster/register, so shards
// can come up in any order on dynamic ports (each shard is then started
// with -coordinator http://coordinator-addr; registration retries with
// backoff, so the coordinator may even boot last).
//
// With -replicas R every partition is served by a replica group of R
// shards (launch R shards per -shard-id, distinguished by -replica-id;
// with explicit -coordinate URLs list them group-major). The
// coordinator fails mid-round over to a group's surviving replicas, so
// killing any single shard leaves results exact — only whole-group loss
// degrades to a 206 partial result.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"fastbfs/cluster/coord"
	"fastbfs/graph"
	"fastbfs/graph/gen"
)

// clusterFlags carries the cluster-mode command line.
type clusterFlags struct {
	shardID     int
	replicaID   int
	shards      int
	coordinator string // shard: register with this coordinator URL
	ckptDir     string

	coordinate     string // coordinator: comma-separated shard URLs or "auto"
	replicas       int
	standbyOf      string // standby: active coordinator URL to watch
	leaseTTL       time.Duration
	stateDir       string // coordinator/standby: journal dir (from -state-dir)
	rpcTimeout     time.Duration
	recoveryBudget time.Duration
	heartbeat      time.Duration
	maxAttempts    int
}

// signalContext is the shared SIGINT/SIGTERM context for the blocking
// cluster modes.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}

// openCoordJournal opens the coordinator state journal under stateDir
// (in a subdirectory, so the dir can be shared with a serve daemon's
// control-plane journal without name collisions).
func openCoordJournal(stateDir string) (*coord.Journal, error) {
	dir := filepath.Join(stateDir, "coord")
	j, err := coord.OpenJournal(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("opening coordinator journal in %s: %w", dir, err)
	}
	if j.TornBytes > 0 {
		log.Printf("coordinator journal tail was torn: truncated %d bytes (crash mid-append)", j.TornBytes)
	}
	if j.SnapshotCorrupt {
		log.Printf("coordinator journal snapshot was corrupt; recovered from the log alone")
	}
	return j, nil
}

// shardReadyz is the shard-mode /readyz body: replica identity, the
// last checkpointed protocol position, the fencing token in force, and
// whether the checkpoint directory accepts writes (a shard that cannot
// checkpoint fails every round, so it is not ready).
type shardReadyz struct {
	Role               string `json:"role"`
	Group              int    `json:"group"`
	Replica            int    `json:"replica"`
	Lo                 uint32 `json:"lo"`
	Hi                 uint32 `json:"hi"`
	Epoch              uint64 `json:"epoch"`
	Round              uint32 `json:"round"`
	Fence              uint64 `json:"fence"`
	CheckpointDir      string `json:"checkpoint_dir,omitempty"`
	CheckpointWritable bool   `json:"checkpoint_writable"`
	CheckpointError    string `json:"checkpoint_error,omitempty"`
}

// probeDirWritable verifies dir accepts a small write (created, synced
// via Close, removed) — the same operations a round checkpoint needs.
func probeDirWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".readyz-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("ok"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return werr
	}
	return cerr
}

// runShardMode serves one partition of the cluster: the shard API plus
// /healthz and a /readyz that reports replica role, checkpoint position
// and checkpoint-dir writability. Blocks until SIGINT/SIGTERM.
func runShardMode(addr string, cf clusterFlags, g *graph.Graph) error {
	if cf.shards < 1 || cf.shardID >= cf.shards {
		return fmt.Errorf("-shard-id %d requires -shards > %d", cf.shardID, cf.shardID)
	}
	s, err := coord.NewReplicaShard(g, cf.shardID, cf.replicaID, cf.shards, cf.ckptDir, nil)
	if err != nil {
		return err
	}
	lo, hi := s.Range()
	log.Printf("shard %d/%d replica %d owns vertices [%d,%d) of %d",
		cf.shardID, cf.shards, cf.replicaID, lo, hi, g.NumVertices())

	mux := http.NewServeMux()
	mux.Handle("/shard/", s.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Status()
		out := shardReadyz{
			Role: st.Role, Group: st.Group, Replica: st.Replica,
			Lo: st.Lo, Hi: st.Hi, Epoch: st.Epoch, Round: st.Round, Fence: st.Fence,
			CheckpointDir: cf.ckptDir,
		}
		status := http.StatusOK
		if cf.ckptDir != "" {
			if err := probeDirWritable(cf.ckptDir); err != nil {
				out.CheckpointError = err.Error()
				status = http.StatusServiceUnavailable
			} else {
				out.CheckpointWritable = true
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(&out)
	})

	server := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("shard listening on %s", addr)
		errCh <- server.ListenAndServe()
	}()

	if cf.coordinator != "" {
		if err := registerWithCoordinator(cf.coordinator, cf.shardID, cf.replicaID, addr); err != nil {
			server.Close()
			return err
		}
	}

	ctx, stop := signalContext()
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return server.Shutdown(sctx)
}

// registerWithCoordinator announces this shard's reachable URL,
// retrying with jittered backoff so shard/coordinator boot order does
// not matter (the coordinator may take a while to start listening).
// Registrations the coordinator actively refuses (bad id, conflicting
// URL after assembly) fail fast: retrying an invalid registration
// cannot succeed.
func registerWithCoordinator(coordURL string, id, replica int, addr string) error {
	body, _ := json.Marshal(map[string]any{"id": id, "replica": replica, "url": selfURL(addr)})
	bo := coord.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	deadline := time.Now().Add(2 * time.Minute)
	var last error
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(coordURL+"/cluster/register", "application/json", strings.NewReader(string(body)))
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				log.Printf("registered with coordinator %s", coordURL)
				return nil
			case http.StatusBadRequest, http.StatusConflict:
				return fmt.Errorf("registering with coordinator %s: %s: %s",
					coordURL, resp.Status, bytes.TrimSpace(msg))
			default:
				last = fmt.Errorf("register: %s: %s", resp.Status, bytes.TrimSpace(msg))
			}
		} else {
			last = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("registering with coordinator %s: %w", coordURL, last)
		}
		time.Sleep(bo.Delay(attempt, uint64(id)<<8|uint64(replica)))
	}
}

// clusterBFSRequest is the coordinator's query body.
type clusterBFSRequest struct {
	Source uint32 `json:"source"`
	// IncludeDepth asks for the full depth array (one int32 per vertex)
	// in the response — meant for validation harnesses, not production.
	IncludeDepth bool `json:"include_depth,omitempty"`
}

// clusterBFSResponse mirrors coord.Result over JSON.
type clusterBFSResponse struct {
	Source          uint32  `json:"source"`
	Visited         int64   `json:"visited"`
	Rounds          int     `json:"rounds"`
	ClaimedPerRound []int64 `json:"claimed_per_round"`
	Epoch           uint64  `json:"epoch"`
	Incomplete      bool    `json:"incomplete"`
	DeadShards      []int   `json:"dead_shards,omitempty"`
	Retries         int     `json:"retries"`
	EpochRestarts   int     `json:"epoch_restarts"`
	Failovers       int     `json:"failovers"`
	Divergences     int     `json:"divergences,omitempty"`
	Hedges          int     `json:"hedges,omitempty"`
	HedgeWins       int     `json:"hedge_wins,omitempty"`
	Depth           []int32 `json:"depth,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// runCoordinatorMode runs the active cluster coordinator. With
// -state-dir it journals membership, its lease and per-round epoch
// state so a -standby-of coordinator can take over. Blocks until
// SIGINT/SIGTERM.
func runCoordinatorMode(addr string, cf clusterFlags) error {
	cs := newCoordServer(addr, cf)
	if cf.stateDir != "" {
		j, err := openCoordJournal(cf.stateDir)
		if err != nil {
			return err
		}
		defer j.Close()
		cs.journal = j
		j.Mirror = cs.mirrorHook
		// The fencing token must exceed every token this journal has ever
		// held a lease for, so a restart (or takeover of our old standby
		// role) can never reuse one the shards already admitted.
		cs.fence = 1
		if l := j.State().Lease; l != nil {
			cs.fence = l.Token + 1
		}
		log.Printf("coordinator: journaling state under %s (fencing token %d, lease TTL %v)",
			j.Dir(), cs.fence, cs.leaseTTL)
	}

	// reg collects shard URLs — fixed from the flag, or dynamically via
	// POST /cluster/register in auto mode.
	replicas := cf.replicas
	if replicas < 1 {
		replicas = 1
	}
	reg := &registry{replicas: replicas, groups: cf.shards, done: make(chan struct{})}
	if cf.coordinate != "auto" {
		if err := reg.fix(strings.Split(cf.coordinate, ",")); err != nil {
			return err
		}
	} else if cf.shards < 1 {
		return errors.New("-coordinate auto requires -shards")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/register", reg.handle)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /readyz", cs.handleReadyz)
	mux.HandleFunc("POST /cluster/bfs", cs.handleBFS)
	mux.HandleFunc("GET /cluster/state", cs.handleState)
	mux.HandleFunc("POST /cluster/mirror", cs.handleMirror)

	server := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("coordinator listening on %s", addr)
		errCh <- server.ListenAndServe()
	}()

	ctx, stop := signalContext()
	defer stop()

	if cs.journal != nil {
		if err := cs.publishLease(); err != nil {
			return fmt.Errorf("publishing initial lease: %w", err)
		}
		go cs.renewLoop(ctx)
		go cs.mirrorPusher(ctx)
	}

	// Assemble the cluster in the background so the listener (and
	// /cluster/register) is up first.
	go func() {
		select {
		case <-reg.done:
		case <-ctx.Done():
			return
		}
		urls := reg.urls()
		if cs.journal != nil {
			a := &coord.GroupAssignment{
				Groups:   uint32(len(urls) / replicas),
				Replicas: uint32(replicas),
				URLs:     urls,
			}
			if err := cs.journal.AppendAssignment(a); err != nil {
				errCh <- fmt.Errorf("journaling shard assignment: %w", err)
				return
			}
		}
		cfg := clusterCoordConfig(cf)
		cfg.Shards = urls
		if err := cs.activate(ctx, cfg); err != nil {
			if errors.Is(err, coord.ErrFenced) {
				// Deposed before we even got going (a standby took over
				// while we were down): keep serving 409s rather than exit,
				// so clients get a typed answer.
				log.Printf("coordinator: %v", err)
				return
			}
			log.Printf("coordinator: assembling cluster: %v", err)
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return server.Shutdown(sctx)
}

// registry collects shard URLs until every replica of every group has
// reported. Keys are group-major flat indices (group*replicas+replica),
// matching coord.Config.Shards order.
type registry struct {
	mu       sync.Mutex
	groups   int
	replicas int
	got      map[int]string
	done     chan struct{} // closed once the shard set is complete
}

func (r *registry) want() int { return r.groups * r.replicas }

// fix seeds the registry from an explicit group-major URL list.
func (r *registry) fix(urls []string) error {
	if len(urls)%r.replicas != 0 {
		return fmt.Errorf("-coordinate lists %d URLs, not divisible into groups of %d replicas", len(urls), r.replicas)
	}
	r.got = make(map[int]string, len(urls))
	for i, u := range urls {
		r.got[i] = strings.TrimSpace(u)
	}
	r.groups = len(urls) / r.replicas
	close(r.done)
	return nil
}

func (r *registry) handle(w http.ResponseWriter, req *http.Request) {
	var body struct {
		ID      int    `json:"id"`
		Replica int    `json:"replica"`
		URL     string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<12)).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := body.ID*r.replicas + body.Replica
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.done:
		// Late or duplicate registration after assembly: accept a known
		// URL (shard restart), refuse anything new.
		if r.got[key] != body.URL {
			http.Error(w, "cluster already assembled", http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "ok")
		return
	default:
	}
	if body.ID < 0 || body.ID >= r.groups || body.Replica < 0 || body.Replica >= r.replicas || body.URL == "" {
		http.Error(w, fmt.Sprintf("bad registration: shard %d replica %d of %dx%d, url %q",
			body.ID, body.Replica, r.groups, r.replicas, body.URL), http.StatusBadRequest)
		return
	}
	if r.got == nil {
		r.got = make(map[int]string, r.want())
	}
	r.got[key] = body.URL
	log.Printf("shard %d replica %d registered at %s (%d/%d)", body.ID, body.Replica, body.URL, len(r.got), r.want())
	if len(r.got) == r.want() {
		close(r.done)
	}
	fmt.Fprintln(w, "ok")
}

func (r *registry) urls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	urls := make([]string, r.want())
	for i := range urls {
		urls[i] = r.got[i]
	}
	return urls
}

// loadClusterGraph builds the single shared graph a shard serves, from
// one -graph value as in standalone mode (its name, if any, is unused).
// Every shard of a cluster must load the identical graph (same file, or
// same spec); the coordinator cross-checks only the partition ranges,
// so mismatched graphs are the operator's failure to keep flags in
// sync.
func loadClusterGraph(graphs graphFlags, mmap bool) (*graph.Graph, error) {
	if len(graphs) != 1 {
		return nil, errors.New("shard mode serves exactly one graph: pass one -graph")
	}
	_, source := splitGraphFlag(graphs[0])
	return gen.Open(source, mmap)
}
