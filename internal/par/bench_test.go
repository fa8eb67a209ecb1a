package par

import (
	"fmt"
	"testing"
)

// BenchmarkBarrier prices one Wait round for 1, 2 and 4 participants
// that do nothing between rounds — the floor of the per-step
// synchronisation cost the engine's small-frontier fast path avoids (a
// two-phase step makes seven such rounds). With work between rounds a
// participant that arrives early parks, and the round costs a wake-up
// on top: see internal/core's BenchmarkSmallLevel.
func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("participants=%d", n), func(b *testing.B) {
			bar := NewBarrier(n)
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
