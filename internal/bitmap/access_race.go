//go:build race

package bitmap

import "sync/atomic"

// load and store under the race detector: see access.go.
func load(p *uint32) uint32 { return atomic.LoadUint32(p) }

func store(p *uint32, v uint32) { atomic.StoreUint32(p, v) }
