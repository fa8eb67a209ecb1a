package serve

// Accessors only tests read.

// Created reports how many engines exist (idle or checked out).
func (p *EnginePool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// Compact forces snapshot compaction now.
func (m *Manifest) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactLocked()
}

// CompactionErr reports the last background compaction failure, if any
// (appends stay durable regardless).
func (m *Manifest) CompactionErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactE
}
