package coord

import (
	"time"

	"fastbfs/internal/xrand"
)

// Backoff computes bounded exponential retry delays with deterministic
// jitter for the coordinator's RPC client and bfsd's boot-time
// registration. After a correlated fault (a crashed shard, a congested
// link) every sender retries, and a fixed schedule makes all of them
// retry at the same instant, turning one incident into a synchronized
// retry storm. Jitter decorrelates the senders; making it a pure hash
// of (Seed, key, attempt) keeps runs reproducible from a single seed,
// which the whole fault-injection stack depends on.
type Backoff struct {
	// Base is the delay before the first retry (attempt 1). Zero or
	// negative means 1ms.
	Base time.Duration
	// Max caps the exponential growth. Zero or negative means uncapped.
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized, in
	// [0, 1]: attempt k waits in [(1-Jitter)·d, d] where d is the capped
	// exponential delay. 0 reproduces the fixed schedule.
	Jitter float64
	// Seed drives the deterministic jitter stream.
	Seed uint64
}

// Delay returns the wait before retry attempt (1-based) of the
// operation identified by key. Distinct keys draw independent jitter,
// so concurrent senders retrying the same attempt spread out instead of
// firing together; the same (Seed, key, attempt) always returns the
// same delay.
func (b Backoff) Delay(attempt int, key uint64) time.Duration {
	base := b.Base
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		if b.Max > 0 && d >= b.Max {
			break
		}
		if d > 1<<61 { // doubling again would overflow time.Duration
			break
		}
		d <<= 1
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	j := b.Jitter
	if j <= 0 {
		return d
	}
	if j > 1 {
		j = 1
	}
	h := xrand.SplitMix64(b.Seed ^ xrand.SplitMix64(key))
	h = xrand.SplitMix64(h ^ uint64(attempt))
	u := float64(h>>11) / (1 << 53) // uniform in [0, 1)
	out := time.Duration(float64(d) * (1 - j*u))
	if out < 1 {
		out = 1 // a scheduled retry always waits a nonzero beat
	}
	return out
}
