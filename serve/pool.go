package serve

import (
	"errors"
	"sync"

	"fastbfs/bfs"
	"fastbfs/graph"
)

// ErrPoolExhausted is Acquire's answer when every engine is checked out.
var ErrPoolExhausted = errors.New("serve: engine pool exhausted")

// EnginePool hands out up to size reusable bfs.Engines over one graph.
// Engines are built lazily — a service holding many graphs only pays
// engine memory for the graphs that see per-source traffic — and
// returned engines are reused in LIFO order (warmest buffers first).
// The pool leans on the bfs package's engine-reuse contract: every Run
// fully resets engine state, so a pooled engine is indistinguishable
// from a fresh one. It never blocks and does not count who is busy: the
// service's scheduler does (graphState.running), and never over-asks.
type EnginePool struct {
	g    *graph.Graph
	opts bfs.Options
	size int

	mu      sync.Mutex
	created int           // engines in existence, idle or checked out
	idle    []*bfs.Engine // stack: Release pushes, Acquire pops
}

// NewEnginePool builds an empty pool of the given capacity (min 1).
func NewEnginePool(g *graph.Graph, opts bfs.Options, size int) *EnginePool {
	return &EnginePool{g: g, opts: opts, size: max(size, 1)}
}

// Acquire returns the most recently released engine, or builds one if
// the pool is below capacity, or fails with ErrPoolExhausted.
func (p *EnginePool) Acquire() (*bfs.Engine, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		e := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return e, nil
	}
	if p.created == p.size {
		p.mu.Unlock()
		return nil, ErrPoolExhausted
	}
	p.created++
	p.mu.Unlock()
	e, err := bfs.NewEngine(p.g, p.opts) // outside the lock: allocates per-vertex state
	if err != nil {
		p.Discard(nil) // it never came to be: give its capacity back
		return nil, err
	}
	return e, nil
}

// Discard retires an engine obtained from Acquire instead of returning
// it: used to quarantine an engine whose traversal died mid-run (its
// worker state is unknown, so the reuse contract no longer holds). The
// freed capacity is rebuilt lazily — the next Acquire that finds the
// pool below size constructs a fresh engine.
func (p *EnginePool) Discard(e *bfs.Engine) {
	p.mu.Lock()
	p.created--
	p.mu.Unlock()
}

// Release returns an engine obtained from Acquire.
func (p *EnginePool) Release(e *bfs.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) == p.created {
		panic("serve: EnginePool.Release without matching Acquire")
	}
	p.idle = append(p.idle, e)
}

// Size is the pool capacity.
func (p *EnginePool) Size() int { return p.size }
