package coord

import (
	"context"
	"testing"
	"time"

	"fastbfs/graph/gen"
)

// TestBackoffSchedule: delays grow exponentially from Base, cap at Max,
// jitter stays inside [(1-Jitter)·d, d], and the same (Seed, key,
// attempt) always returns the same delay while distinct keys decorrelate.
// The retries subtest holds the coordinator to the schedule.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.5, Seed: 42}
	for attempt := 1; attempt <= 8; attempt++ {
		d := b.Base << (attempt - 1)
		if d > b.Max {
			d = b.Max
		}
		lo := time.Duration(float64(d) * (1 - b.Jitter))
		for key := uint64(0); key < 64; key++ {
			got := b.Delay(attempt, key)
			if got < lo || got > d {
				t.Fatalf("attempt %d key %d: delay %v outside [%v, %v]", attempt, key, got, lo, d)
			}
			if again := b.Delay(attempt, key); again != got {
				t.Fatalf("attempt %d key %d: non-deterministic delay %v vs %v", attempt, key, got, again)
			}
		}
	}
	// Jitter must actually spread concurrent retriers of the same
	// attempt: 64 keys collapsing to one instant is the retry storm the
	// helper exists to break up.
	seen := map[time.Duration]bool{}
	for key := uint64(0); key < 64; key++ {
		seen[b.Delay(3, key)] = true
	}
	if len(seen) < 16 {
		t.Errorf("64 keys produced only %d distinct delays; jitter not spreading retries", len(seen))
	}
	// Jitter 0 reproduces the fixed schedule.
	fixed := Backoff{Base: time.Millisecond, Seed: 1}
	for attempt := 1; attempt <= 5; attempt++ {
		if got, want := fixed.Delay(attempt, 9), time.Millisecond<<(attempt-1); got != want {
			t.Fatalf("fixed schedule attempt %d: %v, want %v", attempt, got, want)
		}
	}
	// Zero-value Backoff is usable: 1ms base, uncapped, no jitter.
	var zero Backoff
	if got := zero.Delay(1, 0); got != time.Millisecond {
		t.Errorf("zero-value first delay %v, want 1ms", got)
	}
	if got := zero.Delay(100, 0); got <= 0 {
		t.Errorf("deep attempt overflowed to %v", got)
	}

	t.Run("retries", backoffScheduleRetries)
}

// backoffScheduleRetries: the coordinator spaces a shard's retries by
// its Backoff schedule. Three lost replies in round 0 cost three retries
// and at least the three shortest delays the jitter window allows.
func backoffScheduleRetries(t *testing.T) {
	g, err := gen.UniformRandom(1000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 0)
	tc := newTestCluster(t, g, 2, 1, nil, nil)
	tc.cfg.Backoff = Backoff{Base: 20 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 3}
	var floor time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		floor += time.Duration(float64(tc.cfg.Backoff.Base<<(attempt-1)) * (1 - tc.cfg.Backoff.Jitter))
	}
	tc.proxies[0].onExpand = func(expand int) bool { return expand <= 3 }
	c := tc.open(t)
	start := time.Now()
	res, err := c.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("three retries took %v, under the schedule's floor %v", elapsed, floor)
	}
	if res.Retries != 3 {
		t.Fatalf("%d retries, want 3", res.Retries)
	}
	assertExactDepths(t, res, want)
}
