//go:build !race

package bitmap

// load and store are the word accesses of the atomic-free VIS kinds. In a
// normal build they are plain loads and stores (a MOV each on x86-64),
// the paper's unlocked update (§III-A): a racing store can drop a
// sibling bit, and the caller's DP re-check repairs it. Under the race
// detector they are sync/atomic operations instead (access_race.go), so
// -race runs keep checking everything else without reporting the races
// the protocol tolerates by design.
func load(p *uint32) uint32 { return *p }

func store(p *uint32, v uint32) { *p = v }
