package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the sentinel matched (via errors.Is) by
// *BreakerOpenError rejections; handlers map it to 503 + Retry-After.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// BreakerOpenError rejects a query because the target graph's circuit
// breaker is open after repeated engine-side failures. RetryAfter hints
// when the breaker will admit its next half-open probe.
type BreakerOpenError struct {
	Graph      string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: graph %q: circuit breaker open (retry in %v)", e.Graph, e.RetryAfter)
}

// Is makes errors.Is(err, ErrBreakerOpen) true for breaker rejections.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// Breaker states, reported by /readyz and /stats.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// breaker is a per-graph circuit breaker over engine-side failures
// (panics, watchdog kills, injected faults — never caller-budget
// expiries). Closed it admits everything and counts consecutive
// failures; at threshold it opens, failing queries fast with a typed
// 503 until cooldown elapses; then it goes half-open and admits ONE
// probe traversal — success recloses it, failure reopens the cooldown.
type breaker struct {
	threshold int           // consecutive failures to trip; <= 0 disables
	cooldown  time.Duration // open → half-open delay

	// tripped mirrors state != closed (written under mu, read lock-free)
	// so that probeDue costs the cache-hit path one atomic load.
	tripped atomic.Bool

	mu          sync.Mutex
	state       string
	consecutive int
	openedAt    time.Time
	probing     bool  // a half-open probe is in flight
	forced      bool  // quarantined from outside (scrubber); no probes
	opens       int64 // cumulative trips, for stats
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, state: BreakerClosed}
}

// allow decides whether a new flight may start. probe marks the flight
// as the half-open probe whose outcome drives the state machine;
// retryAfter is meaningful only when !ok.
func (b *breaker) allow() (ok, probe bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		// Quarantined: cooldown never admits a probe — only the party
		// that forced the breaker open (the scrubber, once the artifact
		// verifies again) can reclose it.
		return false, false, b.cooldown
	}
	if b.threshold <= 0 {
		return true, false, 0
	}
	switch b.state {
	case BreakerClosed:
		return true, false, 0
	case BreakerOpen:
		if wait := b.cooldown - time.Since(b.openedAt); wait > 0 {
			return false, false, wait
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true, 0
	default: // half-open
		if b.probing {
			return false, false, b.cooldown
		}
		b.probing = true
		return true, true, 0
	}
}

// probeDue reports that a half-open probe is there to be claimed. It is
// for the cache-hit path, which answers without calling allow: a hit that
// sees true falls through to the flight path and runs as the probe
// (allow claims it), or a graph whose traffic is all hits would stay open
// for ever. While the breaker is closed it is one atomic load, no lock.
func (b *breaker) probeDue() bool {
	if !b.tripped.Load() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.forced:
		return false // quarantined: no query outcome can reclose it
	case b.state == BreakerOpen:
		return time.Since(b.openedAt) >= b.cooldown
	default:
		return b.state == BreakerHalfOpen && !b.probing
	}
}

// onSuccess records a completed traversal: it resets the failure streak
// and, after a successful half-open probe, recloses the breaker.
func (b *breaker) onSuccess(probe bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecutive = 0
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.consecutive = 0
		b.probing = false
		b.tripped.Store(false)
	}
	// Open: a straggler from before the trip; cooldown governs.
}

// onFailure records an engine-side failure; at threshold consecutive
// failures the breaker trips (and a failed half-open probe re-trips).
func (b *breaker) onFailure(probe bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	}
}

// onNeutral records an outcome that says nothing about engine health
// (shed, caller deadline): a neutral probe frees the half-open slot so
// the next query can probe instead.
func (b *breaker) onNeutral(probe bool) {
	if b.threshold <= 0 || !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// forceOpen quarantines the breaker from outside the failure-streak
// path (the integrity scrubber, on a checksum mismatch). It overrides a
// disabled threshold — an artifact that fails its CRC must not serve
// regardless of breaker config — and suppresses half-open probes: no
// query outcome can reclose a forced-open breaker, only clearForced.
func (b *breaker) forceOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		return
	}
	b.forced = true
	b.trip()
}

// clearForced lifts a forceOpen quarantine and recloses the breaker.
// A no-op when the breaker was not forced (an organically open breaker
// keeps its own cooldown state machine).
func (b *breaker) clearForced() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.forced {
		return
	}
	b.forced = false
	b.state = BreakerClosed
	b.consecutive = 0
	b.probing = false
	b.tripped.Store(false)
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.tripped.Store(true)
	b.openedAt = time.Now()
	b.consecutive = 0
	b.probing = false
	b.opens++
}

// snapshot returns the current state name and cumulative trip count.
func (b *breaker) snapshot() (state string, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.forced {
		return BreakerOpen, b.opens
	}
	if b.threshold <= 0 {
		return BreakerClosed, 0
	}
	// An expired cooldown is still reported as open until a query
	// arrives to claim the half-open probe; report it half-open so
	// /readyz shows the breaker is willing to probe.
	if b.state == BreakerOpen && time.Since(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen, b.opens
	}
	return b.state, b.opens
}
