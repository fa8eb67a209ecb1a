package par

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkBarrier prices one Wait round for 1, 2 and 4 participants
// that do nothing between rounds — the floor of the per-level
// synchronisation cost the engine pays (a single-phase top-down level
// makes two such rounds). "poll" is the shipped barrier, whose waiters
// poll before they park; "park" has the polling stages off, so every
// waiter but the last parks and each round pays a wake-up: what a round
// costs once the polling budget is spent, and what the budget is sized
// against.
func BenchmarkBarrier(b *testing.B) {
	for _, mode := range []string{"poll", "park"} {
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/participants=%d", mode, n), func(b *testing.B) {
				bar := NewBarrier(n)
				if mode == "park" {
					bar.spin, bar.yield = 0, 0
				}
				if err := Run(n, func(int) {
					for i := 0; i < b.N; i++ {
						bar.Wait()
					}
				}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkBarrierPolls prices the two polling stages' unit costs: one
// poll of the generation counter, and one runtime.Gosched round trip
// with nothing else runnable. spinPolls and yieldPolls are the stages'
// time budgets divided by these costs.
func BenchmarkBarrierPolls(b *testing.B) {
	b.Run("spin", func(b *testing.B) {
		bar := NewBarrier(2)
		var hits int
		for i := 0; i < b.N; i++ {
			if bar.gen.Load() != 0 || bar.broken.Load() {
				hits++
			}
		}
		if hits != 0 {
			b.Fatal("generation moved")
		}
	})
	b.Run("yield", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.Gosched()
		}
	})
}
