//go:build !race

package core

// loadDP and storeDP are the cohort's DP accesses in visit: plain loads
// and stores in a normal build, the paper's atomic-free update (§III-A,
// Fig. 2(b)), where two workers that pass the VIS probe for one vertex
// both write a same-depth word and the level only does duplicate work.
// Under the race detector they are sync/atomic operations instead
// (access_race.go), so -race runs keep checking the rest of the engine.
func loadDP(p *uint64) uint64 { return *p }

func storeDP(p *uint64, dp uint64) { *p = dp }
