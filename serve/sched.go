package serve

// decide is the scheduler's choice from counts alone: how many flights
// from the queue's head start, and whether as one sweep (k == 0: wait for
// the next enqueue, abandon or run end). A queue of more than one flight
// sweeps once min(queued, width) reaches threshold, but only alone: never
// beside a single or another sweep. Otherwise the head starts as a single
// while a slot is free.
func decide(queued, width, threshold, running, slots int, sweeping bool) (k int, sweep bool) {
	if queued == 0 || sweeping {
		return 0, false
	}
	if k = min(queued, width); k >= threshold && k > 1 {
		if running > 0 {
			return 0, false // the last single to finish starts the sweep
		}
		return k, true
	}
	if running >= slots {
		return 0, false // every slot busy: the next finish reschedules
	}
	return 1, false
}
