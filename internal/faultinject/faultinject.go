// Package faultinject is the deterministic chaos harness behind the
// serving stack's fault-injection points: a small vocabulary of named
// sites threaded through the query path (engine steps, pool acquires,
// multi-source sweeps, graph loads, client behaviour) and an Injector
// that decides, per site and per occurrence, whether to impose an
// artificial delay, fail the operation with an error, or panic.
//
// Determinism is the whole point. Every decision of the Plan injector
// is a pure hash of (Seed, site, key) — never a draw from shared
// mutable RNG state — so the k-th occurrence of a site always receives
// the same decision regardless of goroutine scheduling, and a chaos
// soak replays its fault pattern from a single seed.
//
// Production cost: injection is enabled by passing a non-nil Injector
// to the component under test (serve.Config.Injector). A nil injector
// disables every site; the call sites reduce to one predictable
// nil-check branch each, and no faultinject code runs.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fastbfs/internal/xrand"
)

// Site names one injection point. Sites are part of the chaos plan's
// public vocabulary: a Plan maps each site it wants to disturb to a
// Rule.
type Site string

// Injection sites threaded through the serving stack's query path.
const (
	// SiteEngineStep fires inside a running engine, once per completed
	// traversal step (via the engine's StepHook): delays there simulate
	// slow traversals, panics a crash mid-run with live worker state.
	SiteEngineStep Site = "engine.step"
	// SiteAcquire fires when the dispatcher acquires a pooled engine:
	// errors there simulate spurious ErrEngineBusy / pool failures.
	SiteAcquire Site = "pool.acquire"
	// SiteSweep fires before a batched multi-source sweep: panics there
	// crash a whole round rather than a single engine.
	SiteSweep Site = "sweep.run"
	// SiteGraphLoad fires inside the graph-load path: the loader's
	// reader starts failing with the rule's error after a hash-chosen
	// byte offset, exercising mid-stream I/O failures.
	SiteGraphLoad Site = "graph.load"
	// SiteCoordSend fires in the cluster coordinator's RPC client just
	// before each per-shard request attempt: errors there simulate
	// requests lost on the wire (the client retries with jittered
	// backoff), delays simulate slow links.
	SiteCoordSend Site = "coord.send"
	// SiteShardExpand fires in a shard's expand handler before a round
	// is processed: errors fail the RPC (the coordinator retries
	// against the shard's idempotent round protocol), panics crash the
	// handler mid-round.
	SiteShardExpand Site = "shard.expand"
	// SiteShardLease fires in a shard's fence-admission check, before
	// the fencing token of a round request is compared: errors fail the
	// request (a retryable 500, not a fencing rejection), delays slow
	// admission to widen failover races.
	SiteShardLease Site = "shard.lease"
	// SiteCoordDiverge fires in the coordinator's replica receive path,
	// after a replica's expand response decodes cleanly: a firing fault
	// deterministically corrupts that one replica's response before the
	// audit compares it against its siblings — the way to prove a
	// divergent (silently corrupted) replica answer is never served.
	SiteCoordDiverge Site = "coord.diverge"
	// SiteShardStall fires in a shard's expand handler as a delay-only
	// gray failure: the shard is alive and will eventually answer
	// correctly, but slowly enough that an unhedged coordinator round
	// would stall on it.
	SiteShardStall Site = "shard.stall"
	// SiteScrubCorrupt fires once per artifact per scrub pass in the
	// serving tier's integrity scrubber: a firing fault makes the scrub
	// report a checksum mismatch for that artifact, exercising the
	// quarantine → remount/rebuild recovery path without touching disk.
	SiteScrubCorrupt Site = "scrub.corrupt"
	// SiteManifestAppend fires in the manifest journal's append path
	// before the frame is written: errors simulate disk faults (ENOSPC,
	// EIO) and flip the manifest into degraded non-durable mode until a
	// probe append succeeds.
	SiteManifestAppend Site = "manifest.append"
	// SiteShardCheckpoint fires in a shard's round-log write, before a
	// round record is appended, or after an epoch's new log is written to
	// its temp file but before the rename: errors simulate disk faults
	// (the round fails and the coordinator retries it) and, at epoch
	// start, a crash between the temp write and the rename.
	SiteShardCheckpoint Site = "shard.checkpoint"
)

// ErrInjected is the default error carried by injected failures; chaos
// tests use it (via errors.Is) to tell synthetic faults from real bugs.
var ErrInjected = errors.New("faultinject: injected fault")

// Decision is an injector's verdict for one occurrence of a site.
// The zero value means "no fault: proceed normally".
type Decision struct {
	// Delay is an artificial latency to impose before proceeding.
	Delay time.Duration
	// Err, when non-nil, fails the operation with this error.
	Err error
	// Panic requests a panic at the site (recovered by the containment
	// machinery under test). It wins over Err.
	Panic bool
}

// Fault reports whether the decision injects a failure (error or panic).
func (d Decision) Fault() bool { return d.Err != nil || d.Panic }

// Injector decides the fate of each occurrence of each site. Callers
// identify occurrences with a key (typically a per-site sequence
// number); implementations must be safe for concurrent use and pure in
// (site, key).
type Injector interface {
	Decide(site Site, key uint64) Decision
}

// Decide is the nil-safe entry point call sites use: a nil injector
// never injects.
func Decide(inj Injector, site Site, key uint64) Decision {
	if inj == nil {
		return Decision{}
	}
	return inj.Decide(site, key)
}

// Rule is one site's fault profile inside a Plan. Probabilities are
// evaluated independently: an occurrence can be both delayed and
// failed.
type Rule struct {
	// FaultProb is the probability in [0,1] that an occurrence fails
	// (with Err, or a panic when Panic is set).
	FaultProb float64
	// Err is the injected failure; nil means ErrInjected.
	Err error
	// Panic makes a firing fault panic instead of returning Err.
	Panic bool
	// DelayProb is the probability in [0,1] that an occurrence is
	// delayed; the actual delay is hash-scaled in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds the injected latency.
	MaxDelay time.Duration
}

// Plan is the deterministic seed-hashed injector. Construct it with a
// Seed and per-site Rules; sites without a rule are never disturbed.
// SetEnabled(false) turns the whole plan off at runtime (the chaos
// soak's "injection stops" phase) without changing decision keys, so
// re-enabling resumes the same deterministic sequence.
type Plan struct {
	// Seed drives every decision.
	Seed uint64
	// Rules maps each disturbed site to its fault profile.
	Rules map[Site]Rule

	disabled atomic.Bool
}

// Per-purpose hash domains: the fault roll, the delay roll and the
// delay magnitude must be independent streams per (site, key).
const (
	domFault = 0x6661756c74 // "fault"
	domDelay = 0x64656c6179 // "delay"
	domScale = 0x7363616c65 // "scale"
)

// SetEnabled atomically enables or disables the plan; a disabled plan
// decides "no fault" everywhere.
func (p *Plan) SetEnabled(on bool) { p.disabled.Store(!on) }

// Decide implements Injector: a pure hash of (Seed, site, key).
func (p *Plan) Decide(site Site, key uint64) Decision {
	if p == nil || p.disabled.Load() {
		return Decision{}
	}
	rule, ok := p.Rules[site]
	if !ok {
		return Decision{}
	}
	var d Decision
	if rule.DelayProb > 0 && p.roll(site, key, domDelay) < rule.DelayProb {
		// Hash-scaled in (0, MaxDelay]: never zero, so a firing delay
		// is always observable.
		frac := p.roll(site, key, domScale)
		d.Delay = time.Duration(float64(rule.MaxDelay)*frac) + 1
	}
	if rule.FaultProb > 0 && p.roll(site, key, domFault) < rule.FaultProb {
		if rule.Panic {
			d.Panic = true
		} else if rule.Err != nil {
			d.Err = rule.Err
		} else {
			d.Err = ErrInjected
		}
	}
	return d
}

// roll maps (Seed, site, key, domain) to a uniform float64 in [0, 1).
func (p *Plan) roll(site Site, key uint64, domain uint64) float64 {
	h := xrand.SplitMix64(p.Seed ^ domain)
	for _, b := range []byte(site) {
		h = xrand.SplitMix64(h ^ uint64(b))
	}
	h = xrand.SplitMix64(h ^ key)
	return float64(h>>11) / (1 << 53)
}

// PanicValue is what injected panics carry, so recovery paths and logs
// can attribute a crash to the harness rather than a real bug.
type PanicValue struct {
	Site Site
	Key  uint64
}

func (v PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (key %d)", v.Site, v.Key)
}

// Sequencer hands out per-site occurrence keys: one atomic counter per
// site, so each site sees the deterministic key sequence 0, 1, 2, ...
// regardless of how occurrences interleave across sites.
type Sequencer struct {
	engineStep     atomic.Uint64
	acquire        atomic.Uint64
	sweep          atomic.Uint64
	graphLoad      atomic.Uint64
	coordSend      atomic.Uint64
	shardExpand    atomic.Uint64
	shardLease     atomic.Uint64
	coordDiverge   atomic.Uint64
	shardStall     atomic.Uint64
	scrubCorrupt   atomic.Uint64
	manifestAppend atomic.Uint64
	shardCkpt      atomic.Uint64
	other          atomic.Uint64
}

// Next returns the next key for site.
func (s *Sequencer) Next(site Site) uint64 {
	switch site {
	case SiteEngineStep:
		return s.engineStep.Add(1) - 1
	case SiteAcquire:
		return s.acquire.Add(1) - 1
	case SiteSweep:
		return s.sweep.Add(1) - 1
	case SiteGraphLoad:
		return s.graphLoad.Add(1) - 1
	case SiteCoordSend:
		return s.coordSend.Add(1) - 1
	case SiteShardExpand:
		return s.shardExpand.Add(1) - 1
	case SiteShardLease:
		return s.shardLease.Add(1) - 1
	case SiteCoordDiverge:
		return s.coordDiverge.Add(1) - 1
	case SiteShardStall:
		return s.shardStall.Add(1) - 1
	case SiteScrubCorrupt:
		return s.scrubCorrupt.Add(1) - 1
	case SiteManifestAppend:
		return s.manifestAppend.Add(1) - 1
	case SiteShardCheckpoint:
		return s.shardCkpt.Add(1) - 1
	default:
		return s.other.Add(1) - 1
	}
}
