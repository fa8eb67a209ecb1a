//go:build race

package core

import "sync/atomic"

// loadDP and storeDP under the race detector: see access.go.
func loadDP(p *uint64) uint64 { return atomic.LoadUint64(p) }

func storeDP(p *uint64, dp uint64) { atomic.StoreUint64(p, dp) }
