package coord

import (
	"errors"
	"io/fs"
	"math/bits"
	"os"
)

// Accessors and loaders only tests use.

// Has reports whether vertex v is marked.
func (f *Frontier) Has(v uint32) bool {
	if v < f.Lo || v >= f.Hi {
		return false
	}
	i := v - f.Lo
	return f.words[i>>5]&(1<<(i&31)) != 0
}

// Count returns the number of marked vertices.
func (f *Frontier) Count() int {
	c := 0
	for _, w := range f.words {
		c += bits.OnesCount32(w)
	}
	return c
}

// Empty reports whether no vertex is marked.
func (f *Frontier) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every marked vertex in ascending order.
func (f *Frontier) ForEach(fn func(v uint32)) {
	for wi, w := range f.words {
		for w != 0 {
			b := bits.TrailingZeros32(w)
			v := f.Lo + uint32(wi<<5+b)
			if v < f.Hi {
				fn(v)
			}
			w &^= 1 << b
		}
	}
}

// URL returns the shard URL of (group, replica).
func (a *GroupAssignment) URL(group, replica int) string {
	return a.URLs[group*int(a.Replicas)+replica]
}

// LoadCheckpoint reads the snapshot SaveCheckpoint wrote in dir. A
// missing file returns (nil, nil): no state, fresh start. A corrupt file
// returns a nil checkpoint and an ErrCheckpoint the caller may log — it
// must still boot fresh rather than refuse. A shard's round log is not a
// snapshot and reads as ErrCheckpoint here.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	b, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	return decodeCheckpoint(b)
}

// Resets returns how many round-0 epoch resets the shard has absorbed;
// resume tests use it to prove a standby takeover did NOT restart the
// in-flight epoch.
func (s *Shard) Resets() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resets
}
