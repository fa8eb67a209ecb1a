package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/internal/faultinject"
)

// Config parameterizes a Coordinator. The zero value of every field is
// replaced with a usable default, so Coordinator{Shards: urls} works.
type Config struct {
	// Shards lists the shard base URLs in group-major order: with R
	// replicas per group, Shards[g*R+r] is replica r of group g. Every
	// replica of a group serves the same vertex partition with the same
	// round protocol, so the coordinator can use any of them
	// interchangeably within a round.
	Shards []string
	// Replicas is the replica-group width R (default 1: every group is
	// a single shard, the pre-replication topology). len(Shards) must
	// be a multiple of Replicas.
	Replicas int
	// Fence is the coordinator's fencing token, carried in every shard
	// request. Shards remember the highest token they have admitted and
	// reject lower ones with ErrFenced, so a deposed coordinator whose
	// lease was taken over cannot corrupt its successor's rounds. 0 is
	// the legacy unfenced protocol.
	Fence uint64
	// Journal, when non-nil, durably records the in-flight epoch's
	// per-round candidate frontiers before each round is sent and a
	// completion marker when the traversal finishes, so a standby
	// coordinator can Resume the query without an epoch restart.
	Journal *Journal
	// RPCTimeout bounds each individual request attempt (default 5s).
	RPCTimeout time.Duration
	// MaxAttempts is the guaranteed per-round attempt budget per shard
	// before the recovery clock can declare it dead (default 4).
	MaxAttempts int
	// Backoff schedules the delay between retries. A zero value gets
	// 50ms base, 2s cap, 0.5 jitter.
	Backoff Backoff
	// RecoveryBudget is how long past its last sign of life (heartbeat
	// or round start, whichever is later) a failing shard may stay
	// unreachable before it is declared dead and the round fails over
	// to the group's surviving replicas — or, when none remain, the run
	// degrades (default 15s).
	RecoveryBudget time.Duration
	// HeartbeatInterval paces the health prober (default 500ms).
	HeartbeatInterval time.Duration
	// MaxEpochRestarts bounds full-traversal restarts caused by shards
	// that lost their round state (default 3).
	MaxEpochRestarts int
	// HedgeAfter is how long past a round's first valid replica response
	// a group keeps waiting for its stragglers before abandoning them
	// for the epoch (the hedge, protecting rounds from gray-failed
	// slow-but-alive replicas). Zero derives the budget adaptively from
	// the p99 of recently observed healthy RPC latencies; negative
	// disables hedging.
	HedgeAfter time.Duration
	// AuditReplicas serves a group's answer only when a strict majority
	// of its successful replies agree (CRC32 of the canonical payload):
	// lockstep replicas answer byte-identically, so an outvoted replica
	// is silently corrupt and dead for the epoch with ErrDiverged.
	// Without it the first success is served unchecked. Meaningful only
	// with Replicas >= 2.
	AuditReplicas bool
	// Injector, when non-nil, disturbs the coordinator's send path
	// (faultinject.SiteCoordSend) for chaos tests.
	Injector *faultinject.Plan
	// Client issues the HTTP requests; http.DefaultClient when nil.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.Backoff == (Backoff{}) {
		c.Backoff = Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	}
	if c.RecoveryBudget <= 0 {
		c.RecoveryBudget = 15 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.MaxEpochRestarts <= 0 {
		c.MaxEpochRestarts = 3
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// Result is a distributed traversal's outcome. When every replica group
// kept at least one live member (failures failed over within the
// group), Depth is exactly the serial BFS depth array. When an entire
// group stayed dead past the recovery budget, Incomplete is set and
// Depth covers only the reachable subset the surviving groups computed
// — dead groups' ranges read -1, and vertices whose only paths ran
// through dead groups may read -1 or an overestimate of their true
// depth.
type Result struct {
	Source uint32
	Depth  []int32
	// Rounds is the number of BFS levels executed (claiming rounds).
	Rounds int
	// Visited counts vertices with Depth >= 0.
	Visited int64
	// ClaimedPerRound[r] is the cluster-wide number of vertices first
	// reached at depth r — the BFS level sizes, for round-for-round
	// validation against a serial run. (A resumed traversal only
	// observes the rounds from its resume point on.)
	ClaimedPerRound []int64
	// Epoch identifies the (final) epoch that produced Depth.
	Epoch uint64
	// Incomplete marks a degraded result (a whole group stayed dead).
	Incomplete bool
	// DeadShards lists the replica-group ids declared fully dead, in id
	// order. (With Replicas == 1 a group is a single shard, matching
	// the field's historical meaning.)
	DeadShards []int
	// Retries counts failed request attempts that were retried.
	Retries int
	// EpochRestarts counts full-traversal restarts.
	EpochRestarts int
	// Failovers counts replicas declared dead for the epoch while their
	// group stayed usable — each one is a failure the replication layer
	// absorbed without degrading the result.
	Failovers int
	// Divergences counts replica responses outvoted by their group's
	// quorum under AuditReplicas — with deterministic lockstep replicas,
	// each one is a silent corruption that was detected and never served.
	Divergences int
	// Hedges counts rounds where a group stopped waiting for a straggler
	// replica after the hedge budget elapsed; HedgeWins counts those
	// where an already-arrived sibling response let the round proceed
	// without the straggler.
	Hedges    int
	HedgeWins int
}

// Coordinator drives level-synchronous distributed BFS over HTTP shard
// workers, surviving shard crashes, lost messages and restarts. With
// Replicas > 1 it additionally fails rounds over to secondary replicas,
// keeping results exact through the loss of any proper subset of a
// group.
type Coordinator struct {
	cfg Config
	seq faultinject.Sequencer

	// Discovered at Open: the cluster-wide vertex count and each
	// group's owned range (validated to tile [0, n)).
	groups int
	n      int
	lo     []uint32
	hi     []uint32

	lastContact []atomic.Int64 // unix nanos of last successful contact per URL
	retries     atomic.Int64   // failed attempts retried this Run (parallel senders)
	failovers   atomic.Int64   // replicas declared dead while their group survived
	divergences atomic.Int64   // replica responses outvoted by their group's quorum
	hedges      atomic.Int64   // rounds that abandoned a straggler after the hedge budget
	hedgeWins   atomic.Int64   // hedged rounds that proceeded on a sibling's response

	latMu   sync.Mutex
	latRing [64]time.Duration // recent successful expand RPC latencies
	latLen  int
	latPos  int
}

// errEpochRestart is the internal signal that a shard lost its round
// state and the epoch must be re-run from round 0.
var errEpochRestart = errors.New("coord: shard lost round state; epoch restart required")

// errShardDead is the internal signal that a shard exhausted its
// recovery budget this round.
var errShardDead = errors.New("coord: shard declared dead")

// ErrDiverged marks a replica whose expand response disagreed with its
// group's quorum answer under AuditReplicas. Replicas execute the round
// protocol in deterministic lockstep, so honest responses to one round
// are byte-identical and any divergence is proof of silent corruption;
// the quorum answer is served and the divergent replica is dead for the
// epoch. Wrapped into a returned error only when no strict majority
// exists (e.g. two replicas, two different answers) — the coordinator
// then restarts the epoch rather than risk serving a corrupted result.
var ErrDiverged = errors.New("coord: replica response diverged from quorum")

// Open validates cfg, probes every replica's health endpoint to learn
// the partitioning, and returns a ready Coordinator. Probing retries
// within the recovery budget, so shards may still be booting when Open
// runs. With Replicas > 1, a group only needs one reachable replica to
// be usable; unreachable replicas are logged and picked up by the
// heartbeat prober once they appear.
func Open(ctx context.Context, cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("coord: no shard URLs configured")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Shards)%cfg.Replicas != 0 {
		return nil, fmt.Errorf("coord: %d shard URLs do not divide into groups of %d replicas",
			len(cfg.Shards), cfg.Replicas)
	}
	groups := len(cfg.Shards) / cfg.Replicas
	c := &Coordinator{
		cfg:         cfg,
		groups:      groups,
		lo:          make([]uint32, groups),
		hi:          make([]uint32, groups),
		lastContact: make([]atomic.Int64, len(cfg.Shards)),
	}
	haveRange := make([]bool, groups)
	deadline := time.Now().Add(cfg.RecoveryBudget)
	for u := range cfg.Shards {
		g := u / cfg.Replicas
		for attempt := 1; ; attempt++ {
			id, lo, hi, err := c.probeHealth(ctx, u)
			if err == nil {
				if id != g {
					return nil, fmt.Errorf("coord: URL %q configured as shard %d but reports id %d (shard order must match ids)",
						cfg.Shards[u], g, id)
				}
				if haveRange[g] && (c.lo[g] != lo || c.hi[g] != hi) {
					return nil, fmt.Errorf("coord: group %d replicas disagree on their range: [%d,%d) vs [%d,%d)",
						g, c.lo[g], c.hi[g], lo, hi)
				}
				c.lo[g], c.hi[g] = lo, hi
				haveRange[g] = true
				break
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if time.Now().After(deadline) {
				if cfg.Replicas == 1 {
					return nil, fmt.Errorf("coord: shard %d (%s) unreachable: %w", g, cfg.Shards[u], err)
				}
				// A replicated group tolerates unreachable members as long
				// as one answers — required for a standby taking over a
				// cluster that is mid-failure.
				log.Printf("coord: group %d replica %d (%s) unreachable at open: %v",
					g, u%cfg.Replicas, cfg.Shards[u], err)
				break
			}
			sleepCtx(ctx, cfg.Backoff.Delay(attempt, uint64(u)))
		}
	}
	for g, ok := range haveRange {
		if !ok {
			return nil, fmt.Errorf("coord: group %d has no reachable replica", g)
		}
	}
	// Ranges must tile [0, n) in group order — anything else means the
	// shards were launched with inconsistent -shards/-shard-id flags.
	prev := uint32(0)
	for g := range c.lo {
		if c.lo[g] != prev || c.hi[g] < c.lo[g] {
			return nil, fmt.Errorf("coord: shard %d owns [%d,%d) but the previous shard ends at %d; partitions must tile",
				g, c.lo[g], c.hi[g], prev)
		}
		prev = c.hi[g]
	}
	c.n = int(prev)
	if c.n == 0 {
		return nil, fmt.Errorf("coord: shards report an empty graph")
	}
	return c, nil
}

// NumVertices returns the cluster-wide vertex count the shards report.
func (c *Coordinator) NumVertices() int { return c.n }

// probeHealth parses replica u's health line and records the contact.
// The returned id is the shard's group id.
func (c *Coordinator) probeHealth(ctx context.Context, u int) (id int, lo, hi uint32, err error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, c.cfg.Shards[u]+"/shard/health", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil {
		return 0, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("health: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	// Sscanf matches the prefix, so both the legacy line and the
	// replica-suffixed one parse.
	if _, err := fmt.Sscanf(string(body), "shard %d [%d,%d)", &id, &lo, &hi); err != nil {
		return 0, 0, 0, fmt.Errorf("health: unparseable reply %q", bytes.TrimSpace(body))
	}
	c.lastContact[u].Store(time.Now().UnixNano())
	return id, lo, hi, nil
}

// Run executes one distributed BFS from source, restarting the epoch
// (bounded) when shards lose state and degrading to a partial result
// when whole groups stay dead. Concurrent Runs are not supported — the
// round protocol is per-coordinator sequential.
func (c *Coordinator) Run(ctx context.Context, source uint32) (*Result, error) {
	return c.run(ctx, source, 0, 0, nil)
}

// Resume continues the in-flight traversal recorded in the configured
// journal: it re-sends the journaled round's candidate frontiers under
// the journaled epoch id, relying on the shards' idempotent round
// protocol (replicas that already processed that round replay their
// cached responses byte-exactly; the rest process it normally). Returns
// (nil, nil) when the journal holds no unfinished epoch.
func (c *Coordinator) Resume(ctx context.Context) (*Result, error) {
	if c.cfg.Journal == nil {
		return nil, fmt.Errorf("coord: Resume requires a journal")
	}
	e := c.cfg.Journal.State().Epoch
	if e == nil || e.Done {
		return nil, nil
	}
	if len(e.Cand) != c.groups {
		return nil, fmt.Errorf("coord: journaled epoch has %d candidate frontiers, cluster has %d groups",
			len(e.Cand), c.groups)
	}
	cand := make([]*Frontier, c.groups)
	for g, enc := range e.Cand {
		f, err := DecodeFrontier(enc)
		if err != nil {
			return nil, fmt.Errorf("coord: journaled candidate for group %d: %w", g, err)
		}
		if f.Lo != c.lo[g] || f.Hi != c.hi[g] {
			return nil, fmt.Errorf("coord: journaled candidate for group %d covers [%d,%d), group owns [%d,%d)",
				g, f.Lo, f.Hi, c.lo[g], c.hi[g])
		}
		cand[g] = f
	}
	log.Printf("coord: resuming in-flight epoch %d from round %d (source %d)", e.Epoch, e.Round, e.Source)
	return c.run(ctx, e.Source, e.Epoch, e.Round, cand)
}

// run is the shared engine behind Run and Resume: heartbeats, the
// bounded epoch-restart loop, and result assembly. A non-nil resumeCand
// makes the first attempt continue epoch resumeEpoch at resumeRound;
// restarts after that fall back to fresh epochs.
func (c *Coordinator) run(ctx context.Context, source uint32, resumeEpoch uint64, resumeRound uint32, resumeCand []*Frontier) (*Result, error) {
	if int(source) >= c.n {
		return nil, fmt.Errorf("coord: source %d out of range [0,%d)", source, c.n)
	}

	// Background heartbeats keep lastContact fresh for the liveness
	// rule; they stop when the run does.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	for u := range c.cfg.Shards {
		go func(u int) {
			t := time.NewTicker(c.cfg.HeartbeatInterval)
			defer t.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					c.probeHealth(hbCtx, u) // success updates lastContact
				}
			}
		}(u)
	}

	res := &Result{Source: source}
	c.retries.Store(0)
	c.failovers.Store(0)
	c.divergences.Store(0)
	c.hedges.Store(0)
	c.hedgeWins.Store(0)
	defer func() {
		res.Retries = int(c.retries.Load())
		res.Failovers = int(c.failovers.Load())
		res.Divergences = int(c.divergences.Load())
		res.Hedges = int(c.hedges.Load())
		res.HedgeWins = int(c.hedgeWins.Load())
	}()
	for restart := 0; ; restart++ {
		// Epochs are wall-clock-derived so a restarted coordinator never
		// reuses an epoch id some shard still holds state for.
		epoch := uint64(time.Now().UnixNano()) + uint64(restart)
		startRound := uint32(0)
		var cand []*Frontier
		if restart == 0 && resumeCand != nil {
			epoch, startRound, cand = resumeEpoch, resumeRound, resumeCand
		}
		err := c.runEpoch(ctx, epoch, source, res, startRound, cand)
		if err == nil {
			res.Epoch = epoch
			return res, nil
		}
		// A no-quorum divergence poisons the epoch the same way lost round
		// state does: nothing trustworthy can be served from it, but a
		// fresh epoch may succeed (transient corruption, replica now dead).
		if !errors.Is(err, errEpochRestart) && !errors.Is(err, ErrDiverged) {
			return nil, err
		}
		if restart+1 >= c.cfg.MaxEpochRestarts {
			return nil, fmt.Errorf("coord: giving up after %d epoch restarts: %w", restart+1, err)
		}
		res.EpochRestarts++
		log.Printf("coord: epoch %d abandoned (%v); restarting", epoch, err)
	}
}

// journalRound durably records the about-to-be-sent round's candidate
// frontiers, so a standby coordinator can resume from exactly here.
func (c *Coordinator) journalRound(epoch uint64, source, round uint32, cand []*Frontier) error {
	j := c.cfg.Journal
	if j == nil {
		return nil
	}
	e := &EpochState{Epoch: epoch, Fence: c.cfg.Fence, Source: source, Round: round}
	e.Cand = make([][]byte, len(cand))
	for g, f := range cand {
		e.Cand[g] = f.Encode()
	}
	if err := j.AppendEpoch(e); err != nil && !errors.Is(err, errStaleRecord) {
		// A stale refusal happens only when resuming the already-journaled
		// round — the state is as durable as we need it.
		return fmt.Errorf("coord: journaling round %d: %w", round, err)
	}
	return nil
}

// journalDone marks the journaled epoch finished.
func (c *Coordinator) journalDone(epoch uint64, source, lastRound uint32) error {
	j := c.cfg.Journal
	if j == nil {
		return nil
	}
	e := &EpochState{Epoch: epoch, Fence: c.cfg.Fence, Source: source, Round: lastRound, Done: true}
	if err := j.AppendEpoch(e); err != nil && !errors.Is(err, errStaleRecord) {
		return fmt.Errorf("coord: journaling epoch completion: %w", err)
	}
	return nil
}

// runEpoch drives one traversal attempt under one epoch id, starting at
// startRound with the given candidate frontiers (nil = fresh epoch from
// round 0), filling res on success.
func (c *Coordinator) runEpoch(ctx context.Context, epoch uint64, source uint32, res *Result, startRound uint32, cand []*Frontier) error {
	ngroups := c.groups
	// dead is per replica URL, for this epoch: a dead replica missed
	// rounds and cannot rejoin until the next epoch.
	dead := make([]bool, len(c.cfg.Shards))
	for u := range dead {
		// Replicas never yet contacted (down since before Open) start
		// dead for the epoch rather than stalling round 0 for the full
		// recovery budget; the heartbeat prober readmits them next epoch.
		if c.cfg.Replicas > 1 && c.lastContact[u].Load() == 0 {
			dead[u] = true
		}
	}
	res.ClaimedPerRound = nil
	res.Rounds = 0
	res.Incomplete = false
	res.DeadShards = nil

	if cand == nil {
		// cand[g] is group g's candidate frontier for the current round.
		cand = make([]*Frontier, ngroups)
		for g := range cand {
			cand[g] = NewFrontier(epoch, 0, uint32(g), c.lo[g], c.hi[g])
		}
		cand[PartitionOwner(c.n, ngroups, source)].Set(source)
	}

	lastRound := startRound
	for round := startRound; ; round++ {
		lastRound = round
		if err := c.journalRound(epoch, source, round, cand); err != nil {
			return err
		}
		// Every live group gets a round message every round — empty
		// frontiers included — so round sequencing never gaps. All live
		// replicas of a group receive the same message (the barrier keeps
		// them in lockstep, which is what makes mid-epoch failover
		// possible).
		resps := make([]*ExpandResponse, ngroups)
		errs := make([]error, ngroups)
		var wg sync.WaitGroup
		for g := range ngroups {
			if !c.groupDead(g, dead) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[g], errs[g] = c.expandGroup(ctx, g, cand[g], dead, res)
				}()
			}
		}
		wg.Wait()

		var claimed int64
		next := make([]*Frontier, ngroups)
		for g := range next {
			next[g] = NewFrontier(epoch, round+1, uint32(g), c.lo[g], c.hi[g])
		}
		for g, resp := range resps {
			switch err := errs[g]; {
			case resp != nil:
				claimed += int64(resp.Claimed)
				for _, f := range resp.Out {
					if int(f.Shard) >= ngroups {
						return fmt.Errorf("%w: discovery frame for shard %d of %d", ErrWire, f.Shard, ngroups)
					}
					if err := next[f.Shard].Union(f); err != nil {
						return err
					}
				}
			case err == nil: // dead before the round: not sent
			case errors.Is(err, errShardDead):
				log.Printf("coord: epoch %d round %d: group %d fully dead (%v); degrading", epoch, round, g, err)
			default:
				return err
			}
		}

		if claimed > 0 {
			res.ClaimedPerRound = append(res.ClaimedPerRound, claimed)
			res.Rounds = int(round) + 1
		}
		if claimed == 0 || !slices.Contains(dead, false) {
			break
		}
		for g := range next {
			// Candidates owned by dead groups are dropped: nobody can
			// claim them. (Bumping round tags on the survivors happens
			// via the fresh frontiers above.)
			cand[g] = next[g]
		}
	}

	// Collect the committed depth slices from the survivors.
	depth := make([]int32, c.n)
	for i := range depth {
		depth[i] = -1
	}
	res.Visited = 0
	for g := 0; g < ngroups; g++ {
		if c.groupDead(g, dead) {
			res.Incomplete = true
			res.DeadShards = append(res.DeadShards, g)
			continue
		}
		if c.hi[g] == c.lo[g] {
			continue
		}
		d, err := c.depthsGroup(ctx, g, epoch, dead)
		if err != nil {
			if errors.Is(err, errShardDead) {
				// The whole group died after its last round but before
				// reporting: its slice is lost; degrade rather than fail.
				log.Printf("coord: epoch %d: group %d died before reporting depths; degrading", epoch, g)
				res.Incomplete = true
				res.DeadShards = append(res.DeadShards, g)
				continue
			}
			return err
		}
		if d.Lo != c.lo[g] || d.Hi != c.hi[g] {
			return fmt.Errorf("%w: shard %d reported depths for [%d,%d), owns [%d,%d)",
				ErrWire, g, d.Lo, d.Hi, c.lo[g], c.hi[g])
		}
		copy(depth[d.Lo:d.Hi], d.Depth)
		for _, v := range d.Depth {
			if v >= 0 {
				res.Visited++
			}
		}
	}
	res.Depth = depth
	return c.journalDone(epoch, source, lastRound)
}

// groupDead reports whether every replica of group g is dead.
func (c *Coordinator) groupDead(g int, dead []bool) bool {
	R := c.cfg.Replicas
	return !slices.Contains(dead[g*R:(g+1)*R], false)
}

// expandGroup delivers one round message to every live replica of group
// g in parallel and waits for them all, because a replica that misses a
// round leaves lockstep, but no longer than the hedge budget past the
// first valid reply, so a gray-failed slow replica cannot stall the
// epoch. settle decides the round; the replicas it names are dead for
// the epoch.
func (c *Coordinator) expandGroup(ctx context.Context, g int, f *Frontier, dead []bool, res *Result) (*ExpandResponse, error) {
	R := c.cfg.Replicas
	var live []int
	for u := g * R; u < (g+1)*R; u++ {
		if !dead[u] {
			live = append(live, u)
		}
	}
	// Stragglers are cancelled when the group stops waiting; the buffered
	// channel lets their goroutines deliver and exit regardless, so a
	// hedged round leaks no in-flight request goroutine.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan groupReply, len(live))
	for _, u := range live {
		go func(u int) {
			start := time.Now()
			resp, crc, err := c.expand(gctx, u, f, res)
			if err == nil {
				c.recordLatency(time.Since(start))
			}
			ch <- groupReply{u, resp, crc, err}
		}(u)
	}

	replies := make([]groupReply, 0, len(live))
	var hedgeC <-chan time.Time
	hedged := false
	for len(replies) < len(live) && !hedged {
		select {
		case r := <-ch:
			if errors.Is(r.err, ErrFenced) {
				return nil, r.err
			}
			replies = append(replies, r)
			if r.err == nil && hedgeC == nil && len(replies) < len(live) {
				if d := c.hedgeDelay(); d > 0 {
					t := time.NewTimer(d)
					defer t.Stop()
					hedgeC = t.C
				}
			}
		case <-hedgeC:
			hedged = true
			c.hedges.Add(1)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	o := settle(live, replies, hedged, c.cfg.AuditReplicas)
	for _, d := range o.dead {
		dead[d.u] = true
		log.Printf("coord: epoch %d round %d: group %d replica %d dead for epoch: %v", f.Epoch, f.Round, g, d.u%R, d.err)
	}
	c.failovers.Add(int64(o.failovers))
	c.divergences.Add(int64(o.divergences))
	if o.hedgeWin {
		c.hedgeWins.Add(1)
	}
	if o.err != nil {
		return nil, fmt.Errorf("group %d epoch %d round %d: %w", g, f.Epoch, f.Round, o.err)
	}
	return o.best, nil
}

// recordLatency feeds a successful expand round-trip into the latency
// window the adaptive hedge budget is derived from.
func (c *Coordinator) recordLatency(d time.Duration) {
	c.latMu.Lock()
	c.latRing[c.latPos] = d
	c.latPos = (c.latPos + 1) % len(c.latRing)
	if c.latLen < len(c.latRing) {
		c.latLen++
	}
	c.latMu.Unlock()
}

// hedgeDelay is how long past a round's first valid response a group
// keeps waiting for stragglers (see hedgeBudget).
func (c *Coordinator) hedgeDelay() time.Duration {
	c.latMu.Lock()
	lats := slices.Clone(c.latRing[:c.latLen])
	c.latMu.Unlock()
	return hedgeBudget(c.cfg.HedgeAfter, c.cfg.RPCTimeout, lats)
}

// hedgeFloor is the least adaptive hedge budget. A healthy replica's
// round trip includes its round-log append and fsync. On a 2-vCPU host
// (R-MAT scale 18, 3 groups × 2 replicas, 20 runs, 51,774 rounds) that
// persist took 0.9–1.4 ms at the median, 12–15 ms at p99 and up to 129 ms
// next to a synced writer, and a round's slower healthy sibling trailed
// the faster one by up to 78 ms. A floor inside that tail abandons a
// healthy replica whose fsync stalls after a quiet window. 250 ms clears
// the observed storage tail with margin and still cuts a gray replica's
// multi-second stall short.
const hedgeFloor = 250 * time.Millisecond

// hedgeBudget is the hedge budget: the configured hedgeAfter when
// nonzero (negative disables hedging and returns 0), otherwise 4× the
// p99 of lats, the recent healthy expand latencies, held within
// [hedgeFloor, rpcTimeout] — generous enough that ordinary jitter never
// trips it, tight enough that a gray-failed replica cannot stall the
// epoch for the full recovery budget. With no latency observed yet it
// returns 0. lats is sorted in place.
func hedgeBudget(hedgeAfter, rpcTimeout time.Duration, lats []time.Duration) time.Duration {
	switch {
	case hedgeAfter < 0:
		return 0
	case hedgeAfter > 0:
		return hedgeAfter
	case len(lats) == 0:
		return 0
	}
	slices.Sort(lats)
	d := max(4*lats[len(lats)*99/100], hedgeFloor)
	return min(d, rpcTimeout)
}

// depthsGroup fetches group g's committed depth slice for epoch from
// any live replica, failing over in replica order. The round barrier
// guarantees every live replica processed every round, so any of them
// holds the complete slice. Each replica passed over for a sibling's
// answer counts one failover.
func (c *Coordinator) depthsGroup(ctx context.Context, g int, epoch uint64, dead []bool) (*DepthSlice, error) {
	R := c.cfg.Replicas
	var lastErr error
	failed := 0
	for r := 0; r < R; r++ {
		u := g*R + r
		if dead[u] {
			continue
		}
		d, err := c.depths(ctx, u, epoch)
		switch {
		case err == nil:
			c.failovers.Add(int64(failed))
			return d, nil
		case errors.Is(err, errShardDead), errors.Is(err, errEpochRestart), errors.Is(err, ErrWire):
			// Dead, alive but lost the epoch post-round, or answered
			// undecodably: this replica cannot report; try a sibling.
			log.Printf("coord: epoch %d: group %d replica %d dead for epoch: %v", epoch, g, r, err)
			dead[u] = true
			failed++
			if !errors.Is(lastErr, ErrWire) {
				lastErr = err
			}
		default:
			return nil, err
		}
	}
	if errors.Is(lastErr, ErrWire) {
		// As in a round: an undecodable reply that no sibling outweighs
		// fails the query rather than degrading it.
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w: group %d depths: %v", errShardDead, g, lastErr)
}

// expand delivers one round message to replica u, retrying transient
// failures with jittered backoff until the shard answers, demands an
// epoch restart, or exhausts its recovery budget. The returned uint32 is
// the CRC32 of the response's canonical payload bytes — the quantity the
// replica audit compares: shards cache and replay their encoded response
// bytes, so honest replies to one round are byte-identical across a
// group.
func (c *Coordinator) expand(ctx context.Context, u int, f *Frontier, res *Result) (*ExpandResponse, uint32, error) {
	body, err := c.rpc(ctx, u, http.MethodPost, "/shard/expand", f.Encode(), res)
	if err != nil {
		return nil, 0, err
	}
	resp, err := DecodeExpandResponse(body)
	if err != nil {
		return nil, 0, err
	}
	if resp.Epoch != f.Epoch || resp.Round != f.Round || resp.Shard != f.Shard {
		return nil, 0, fmt.Errorf("%w: replica %s answered (epoch %d, round %d, shard %d) to (epoch %d, round %d, shard %d)",
			ErrWire, c.cfg.Shards[u], resp.Epoch, resp.Round, resp.Shard, f.Epoch, f.Round, f.Shard)
	}
	if c.cfg.Injector != nil {
		// The coord.diverge site simulates silent corruption of this one
		// replica's answer after it passed the wire checks. The key is
		// structured as (replica, round) rather than drawn from a shared
		// sequence so a given replica diverges on the same rounds
		// regardless of goroutine scheduling.
		key := uint64(u)<<32 | uint64(f.Round)
		if d := faultinject.Decide(c.cfg.Injector, faultinject.SiteCoordDiverge, key); d.Fault() {
			resp.Claimed++
			return resp, auditCRC(resp.Encode()), nil
		}
	}
	return resp, auditCRC(body), nil
}

// auditCRC hashes a response frame's payload for the replica audit. The
// frame's last 4 bytes are its own CRC32 trailer; hashing the whole
// frame would fold the trailer back in and yield the CRC-32 residue
// constant (0x2144DF1C) for every intact frame, collapsing all replies
// into one audit bucket. Hashing the payload alone keeps distinct
// contents distinct.
func auditCRC(frame []byte) uint32 {
	if len(frame) >= 4 {
		frame = frame[:len(frame)-4]
	}
	return crc32.ChecksumIEEE(frame)
}

// depths fetches replica u's committed depth slice for epoch.
func (c *Coordinator) depths(ctx context.Context, u int, epoch uint64) (*DepthSlice, error) {
	body, err := c.rpc(ctx, u, http.MethodGet, fmt.Sprintf("/shard/depths?epoch=%d", epoch), nil, nil)
	if err != nil {
		return nil, err
	}
	return DecodeDepthSlice(body)
}

// rpc performs one logical request with the full fault-tolerance
// stack: per-attempt deadline, injected send faults, bounded retry with
// jittered backoff, heartbeat-informed liveness, and typed outcomes for
// epoch conflicts (409 → errEpochRestart), fencing rejections (409 with
// FencedHeader → ErrFenced) and death (errShardDead).
func (c *Coordinator) rpc(ctx context.Context, u int, method, path string, body []byte, res *Result) ([]byte, error) {
	roundStart := time.Now()
	// hardAttempts bounds pathological livelock: a shard whose health
	// endpoint answers while its work endpoint fails forever would
	// otherwise reset the recovery clock indefinitely.
	hardAttempts := 8 * c.cfg.MaxAttempts
	for attempt := 1; ; attempt++ {
		reply, status, fenced, err := c.attempt(ctx, u, method, path, body)
		if err == nil && status == http.StatusOK {
			c.lastContact[u].Store(time.Now().UnixNano())
			return reply, nil
		}
		if err == nil && status == http.StatusConflict {
			c.lastContact[u].Store(time.Now().UnixNano())
			if fenced {
				// A newer coordinator holds the lease: stop coordinating,
				// do not retry, do not restart the epoch.
				return nil, fmt.Errorf("%w: replica %s: %s", ErrFenced, c.cfg.Shards[u], bytes.TrimSpace(reply))
			}
			// The shard is alive but lost (or never had) this epoch's
			// round state: only a fresh epoch can proceed.
			return nil, fmt.Errorf("%w: replica %s: %s", errEpochRestart, c.cfg.Shards[u], bytes.TrimSpace(reply))
		}
		if err == nil {
			err = fmt.Errorf("replica %s: HTTP %d: %s", c.cfg.Shards[u], status, bytes.TrimSpace(reply))
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Liveness rule: a shard gets its guaranteed attempt budget, and
		// after that stays retryable only while its last sign of life
		// (round start or heartbeat) is within the recovery budget.
		alive := time.Now()
		ref := roundStart
		if lc := time.Unix(0, c.lastContact[u].Load()); lc.After(ref) {
			ref = lc
		}
		if attempt >= hardAttempts ||
			(attempt >= c.cfg.MaxAttempts && alive.Sub(ref) > c.cfg.RecoveryBudget) {
			return nil, fmt.Errorf("%w: replica %s after %d attempts over %v: %v",
				errShardDead, c.cfg.Shards[u], attempt, time.Since(roundStart).Round(time.Millisecond), err)
		}
		if res != nil {
			c.retries.Add(1)
		}
		if err := sleepCtx(ctx, c.cfg.Backoff.Delay(attempt, rpcBackoffKey(u, path, body))); err != nil {
			return nil, err
		}
	}
}

// attempt issues one HTTP request with the per-attempt deadline,
// consulting the fault injector first (an injected error simulates a
// request lost on the wire; an injected delay a slow link). fenced
// reports whether the reply carried the fencing-rejection marker.
func (c *Coordinator) attempt(ctx context.Context, u int, method, path string, body []byte) (reply []byte, status int, fenced bool, err error) {
	if c.cfg.Injector != nil {
		d := faultinject.Decide(c.cfg.Injector, faultinject.SiteCoordSend, c.seq.Next(faultinject.SiteCoordSend))
		if d.Delay > 0 {
			if err := sleepCtx(ctx, d.Delay); err != nil {
				return nil, 0, false, err
			}
		}
		if d.Err != nil {
			return nil, 0, false, fmt.Errorf("replica %s: %w", c.cfg.Shards[u], d.Err)
		}
	}
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.cfg.Shards[u]+path, rd)
	if err != nil {
		return nil, 0, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if c.cfg.Fence > 0 {
		req.Header.Set(FenceHeader, strconv.FormatUint(c.cfg.Fence, 10))
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return nil, 0, false, err
	}
	return reply, resp.StatusCode, resp.Header.Get(FencedHeader) == "1", nil
}

// rpcBackoffKey decorrelates concurrent retriers: distinct replicas and
// requests jitter independently.
func rpcBackoffKey(u int, path string, body []byte) uint64 {
	h := uint64(u)<<32 ^ uint64(len(body))
	for _, b := range []byte(path) {
		h = h*131 + uint64(b)
	}
	return h
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
