// Command bfsd is the fastbfs traversal query daemon: it loads one or
// more graphs into memory and serves BFS queries (depth, parent, path,
// reachability) over an HTTP/JSON API, with engine pooling, admission
// control, result caching and batched multi-source execution provided
// by the serve package.
//
// Usage:
//
//	bfsd -addr :8080 -graph social=social.csr -graph roads=roads.csr
//	bfsd -graph rmat:scale=18          # generated, served as "default"
//
// Each -graph value is [name=]SOURCE, where SOURCE is a CSR file or a
// generator spec, kind:key=value,... as graphgen takes it (bfsd -h lists
// every kind with its defaults). An unnamed file is served under its
// base name, an unnamed generated graph as "default".
//
// Query it:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz    # breakers/drain/loading state
//	curl -s -X POST localhost:8080/query \
//	  -d '{"graph":"default","source":0,"targets":[42],"path_to":42}'
//	curl -s -X POST localhost:8080/graphs/load -d '{"name":"roads","path":"roads.csr"}'
//	curl -s -X POST localhost:8080/graphs/unload -d '{"name":"roads"}'
//	curl -s -X POST localhost:8080/graphs/default/index   # build distance index
//	curl -s -X POST localhost:8080/query \
//	  -d '{"graph":"default","source":0,"targets":[42],"distance_only":true}'
//
// With -index (or POST /graphs/{g}/index) the daemon builds a landmark
// distance labeling per graph in the background, batched 64 sources at
// a time with multi-source BFS; distance_only queries it certifies are
// answered in microseconds without a traversal ("index":true,
// "exact":true), everything else falls back to exact BFS. For file
// graphs in durable mode the artifact is persisted next to the graph
// (<path>.idx, CRC-footed) and journaled, so a restart remounts it.
//
// Each graph entering the serving table is auto-tuned by default: a
// short calibration pass prices the paper's analytical model against
// the graph's measured shape and picks the VIS variant, hybrid α/β,
// prefetch distance, batched binning and MS-BFS lane width per graph
// (see the tune package). The profile is journaled with the graph in
// durable mode, so a kill -9 restart reuses it without re-calibrating;
// /stats and /readyz expose the chosen knobs and predicted-vs-measured
// MTEPS. -no-tune (or "tune":false on POST /graphs/load) pins the
// engine defaults instead.
//
// The daemon degrades rather than dies: per-graph circuit breakers
// (-breaker-threshold) fail queries fast while a graph's engines are
// crashing, a watchdog (-watchdog-mult) hard-cancels wedged traversals,
// overload sheds the stalest queued work first, and -max-resident-bytes
// bounds graph memory with LRU eviction of idle graphs.
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503 so load
// balancers stop routing here, new queries are rejected, admitted ones
// finish (up to -draintimeout), then the process exits.
//
// With -state-dir the control plane is durable: every acknowledged
// load/unload (including file graphs given with -graph) is journaled —
// fsync'd before the HTTP 200 — and a restart replays the journal to
// restore the exact pre-crash graph set, tolerating a torn journal
// tail from a mid-write crash. /readyz stays 503 until recovery
// completes. -mmap serves graph files from read-only mappings so a warm
// restart is bounded by page cache rather than re-parsing; results are
// byte-identical and the CRC footer is still verified.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph/gen"
	"fastbfs/serve"
)

// graphFlags collects repeated -graph [name=]SOURCE values.
type graphFlags []string

func (g *graphFlags) String() string     { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error { *g = append(*g, v); return nil }

// splitGraphFlag splits a -graph value, [name=]SOURCE, into the name
// the graph is served under and its source, a CSR path or a generator
// spec. The name= prefix is recognised only when the text before the
// first '=' has no ':', so a bare spec's key=value pairs never read as
// a name. An unnamed file is named after its base name without the
// extension, an unnamed spec "default".
func splitGraphFlag(v string) (name, source string) {
	if name, source, ok := strings.Cut(v, "="); ok && !strings.Contains(name, ":") {
		return name, source
	}
	if gen.IsSpec(v) {
		return "default", v
	}
	return strings.TrimSuffix(filepath.Base(v), filepath.Ext(v)), v
}

func main() {
	var graphs graphFlags
	addr := flag.String("addr", ":8080", "listen address")
	flag.Var(&graphs, "graph", "graph to serve, as [name=]SOURCE with SOURCE a CSR file or a generator spec kind:key=value,... (repeatable); kinds and defaults:"+gen.SpecUsage())
	workers := flag.Int("workers", 0, "traversal workers (0 = GOMAXPROCS)")
	pool := flag.Int("pool", 2, "engines per graph")
	queue := flag.Int("queue", 256, "admission queue bound")
	cache := flag.Int("cache", 32, "cached traversals per graph (negative disables)")
	batchMin := flag.Int("batchmin", 4, "min queued sources that run as one multi-source sweep")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-query deadline")
	drainTimeout := flag.Duration("draintimeout", 15*time.Second, "graceful drain bound at shutdown")
	symmetric := flag.Bool("symmetric", false, "assert served graphs are symmetric (hybrid skips transposes)")
	maxResident := flag.Int64("max-resident-bytes", 0, "resident graph-memory budget; idle graphs are evicted LRU-first (0 = unlimited)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive engine-side failures that open a graph's circuit breaker (negative disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before a half-open probe is admitted")
	watchdogMult := flag.Int("watchdog-mult", 4, "hard-cancel a traversal after this multiple of its deadline budget (negative disables)")
	shedTarget := flag.Duration("shed-target", 500*time.Millisecond, "queue sojourn past which the oldest queued query is shed under overload (negative disables)")
	stateDir := flag.String("state-dir", "", "durable control plane: journal graph load/unload mutations here and recover them at startup (empty = stateless, restart forgets loaded graphs)")
	snapshotEvery := flag.Int("snapshot-every", serve.DefaultSnapshotEvery, "compact the state-dir journal into a snapshot after this many records")
	mmapLoads := flag.Bool("mmap", false, "load graph files via read-only mmap: warm restarts hit page cache instead of re-parsing (CRC footer still verified)")
	noTune := flag.Bool("no-tune", false, "disable model-driven auto-tuning: serve every graph on the engine defaults instead of calibrating a per-graph profile at load")
	buildIndex := flag.Bool("index", false, "build a landmark distance index for every served graph at startup (background; /query distance_only answers from it)")
	idxLandmarks := flag.Int("index-landmarks", 64, "landmarks per index build")
	idxPolicy := flag.String("index-policy", "degree", "landmark selection policy: degree | random")
	idxSeed := flag.Uint64("index-seed", 1, "seed for the random landmark policy")
	scrubInterval := flag.Duration("scrub-interval", time.Minute, "background integrity scrub period: re-hash every resident graph/index against its CRC footer, quarantining and remounting on mismatch (0 disables)")
	scrubRate := flag.Int64("scrub-rate", 0, "scrub hash throughput cap in bytes/sec so the walk stays low-priority (0 = default 256 MiB/s, negative = unthrottled)")

	var cf clusterFlags
	flag.IntVar(&cf.shardID, "shard-id", -1, "run as cluster shard with this id (requires -shards; see cluster/coord)")
	flag.IntVar(&cf.replicaID, "replica-id", 0, "shard mode: replica index within this shard's group")
	flag.IntVar(&cf.shards, "shards", 0, "total shard-group count of the cluster")
	flag.StringVar(&cf.coordinator, "coordinator", "", "shard mode: register with this coordinator URL (for -coordinate auto)")
	flag.StringVar(&cf.ckptDir, "checkpoint-dir", "", "shard mode: persist per-round checkpoints here for crash recovery")
	flag.StringVar(&cf.coordinate, "coordinate", "", "run as cluster coordinator over these comma-separated shard URLs (group-major with -replicas), or 'auto' to await registrations")
	flag.IntVar(&cf.replicas, "replicas", 1, "coordinator: replicas per shard group; any single replica may die without degrading results")
	flag.StringVar(&cf.standbyOf, "standby-of", "", "run as standby coordinator watching this active coordinator URL (requires -state-dir)")
	flag.DurationVar(&cf.leaseTTL, "lease-ttl", 3*time.Second, "coordinator lease duration; the standby takes over once it expires unrenewed")
	flag.DurationVar(&cf.rpcTimeout, "rpc-timeout", 5*time.Second, "coordinator: per-attempt deadline for shard RPCs")
	flag.DurationVar(&cf.recoveryBudget, "recovery-budget", 15*time.Second, "coordinator: how long a failing shard may stay unreachable before failover/degradation")
	flag.DurationVar(&cf.heartbeat, "heartbeat", 500*time.Millisecond, "coordinator: shard health probe interval")
	flag.IntVar(&cf.maxAttempts, "max-attempts", 4, "coordinator: guaranteed per-round delivery attempts per shard")
	flag.Parse()
	cf.stateDir = *stateDir

	if cf.standbyOf != "" {
		if err := runStandbyMode(*addr, cf); err != nil {
			log.Fatalf("bfsd: %v", err)
		}
		return
	}
	if cf.coordinate != "" {
		if err := runCoordinatorMode(*addr, cf); err != nil {
			log.Fatalf("bfsd: %v", err)
		}
		return
	}
	if cf.shardID >= 0 {
		g, err := loadClusterGraph(graphs, *mmapLoads)
		if err != nil {
			log.Fatalf("bfsd: %v", err)
		}
		if err := runShardMode(*addr, cf, g); err != nil {
			log.Fatalf("bfsd: %v", err)
		}
		return
	}

	opts := bfs.Default(1)
	opts.Workers = *workers
	opts.Symmetric = *symmetric
	svc := serve.New(serve.Config{
		PoolSize:       *pool,
		MaxQueue:       *queue,
		CacheEntries:   *cache,
		BatchThreshold: *batchMin,
		DefaultTimeout: *timeout,
		Workers:        *workers,
		Options:        &opts,

		MaxResidentBytes: *maxResident,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		WatchdogMult:     *watchdogMult,
		ShedTarget:       *shedTarget,
		StateDir:         *stateDir,
		SnapshotEvery:    *snapshotEvery,
		MmapLoads:        *mmapLoads,
		AutoTune:         !*noTune,
		ScrubInterval:    *scrubInterval,
		ScrubRate:        *scrubRate,
		Logf:             log.Printf,
	})

	// The listener comes up before recovery so /readyz is observable
	// (503) while the journal replays; load balancers route only after
	// the pre-crash graph set is back.
	conns := newFreshConns()
	server := &http.Server{Addr: *addr, Handler: serve.NewHandler(svc), ConnState: conns.track}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errCh <- server.ListenAndServe()
	}()

	if *stateDir != "" {
		sum, err := svc.Recover()
		if err != nil {
			log.Fatalf("bfsd: recovering state dir %s: %v", *stateDir, err)
		}
		log.Printf("recovered %d graph(s) from %s in %v (journal seq %d, %d records since snapshot)",
			len(sum.Graphs), *stateDir, sum.Duration.Round(time.Millisecond), sum.Journal.Seq, sum.Journal.Records)
		for _, name := range sum.Failed {
			log.Printf("WARNING: journaled graph %q could not be reloaded; serving without it", name)
		}
		for _, name := range sum.Indexes {
			log.Printf("remounted distance index for graph %q", name)
		}
		for _, name := range sum.IndexesRebuilding {
			log.Printf("journaled index artifact for %q unusable; rebuilding in background", name)
		}
		if sum.Journal.TornBytes > 0 {
			log.Printf("journal tail was torn: truncated %d bytes (crash mid-append)", sum.Journal.TornBytes)
		}
	}

	if err := loadGraphs(svc, graphs, *stateDir != ""); err != nil {
		log.Fatalf("bfsd: %v", err)
	}
	for _, gi := range svc.Graphs() {
		log.Printf("serving graph %q: %d vertices, %d edges (mapped=%v)", gi.Name, gi.Vertices, gi.Edges, gi.Mapped)
	}
	if *buildIndex {
		// Background builds; a remounted (recovered) index is kept as-is
		// since BuildIndex without Force is a no-op on a ready index, and
		// a recovery-triggered rebuild already in flight reports busy.
		for _, gi := range svc.Graphs() {
			_, err := svc.BuildIndex(gi.Name, serve.IndexOptions{
				Landmarks: *idxLandmarks, Policy: *idxPolicy, Seed: *idxSeed,
			})
			switch {
			case err == nil:
				log.Printf("building distance index for graph %q (%d landmarks, %s policy)",
					gi.Name, *idxLandmarks, *idxPolicy)
			case errors.Is(err, serve.ErrIndexBusy):
			default:
				log.Printf("WARNING: index build for %q not started: %v", gi.Name, err)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("bfsd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("draining (up to %v)...", *drainTimeout)
	svc.BeginDrain() // healthz → 503 immediately, before the listener closes
	conns.drain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := server.Shutdown(dctx); err != nil {
		log.Printf("bfsd: http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		log.Printf("bfsd: drain incomplete: %v", err)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}

// freshConns tracks the connections in http.StateNew — accepted, no
// request read yet — through the server's ConnState hook, so a drain can
// close them. http.Server.Shutdown closes idle connections at once but
// gives a new one a fixed 5 s to send its first request, and a client
// transport that dialed a spare connection and never used it holds the
// drain that long. A connection only leaves StateNew once the server has
// read from it, so one whose request is already on the wire can still
// be new when the drain starts: drain gives every new connection
// freshGrace to be read before it closes the ones still new.
type freshConns struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool // the grace is over: a new connection is closed at once
}

// freshGrace is how long a drain waits for a new connection's first
// request to be read: far longer than a request already sent takes to
// arrive, far shorter than Shutdown's 5 s.
const freshGrace = 100 * time.Millisecond

func newFreshConns() *freshConns {
	return &freshConns{conns: map[net.Conn]struct{}{}}
}

// track is the http.Server ConnState hook.
func (f *freshConns) track(c net.Conn, state http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if state != http.StateNew {
		delete(f.conns, c)
		return
	}
	if f.closing {
		c.Close() // accepted after the grace, while the listener closed
		return
	}
	f.conns[c] = struct{}{}
}

// drain closes, freshGrace from now, every connection still in StateNew
// and any accepted after that. It returns at once, so Shutdown can close
// the listener and serve what is in flight meanwhile.
func (f *freshConns) drain() {
	time.AfterFunc(freshGrace, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.closing = true
		for c := range f.conns {
			c.Close()
			delete(f.conns, c)
		}
	})
}

// loadGraphs registers every -graph value. File graphs go through the
// service's load path, so -mmap applies and, in durable mode, they are
// journaled like any other load (a restart without the flags still
// serves them). Generated graphs have no file to reload from and stay
// in-memory only.
func loadGraphs(svc *serve.Service, graphs graphFlags, durable bool) error {
	for _, v := range graphs {
		name, source := splitGraphFlag(v)
		if !gen.IsSpec(source) {
			if _, err := svc.LoadGraph(name, source); err != nil {
				return fmt.Errorf("loading %q: %w", source, err)
			}
			continue
		}
		g, err := gen.Open(source, false)
		if err != nil {
			return err
		}
		if err := svc.AddGraph(name, g); err != nil {
			return err
		}
	}
	if len(svc.Graphs()) == 0 {
		if durable {
			// A durable daemon may legitimately cold-boot empty and be
			// populated through POST /graphs/load.
			log.Printf("no graphs yet; load them via POST /graphs/load")
			return nil
		}
		return errors.New("no graphs: pass -graph")
	}
	return nil
}
