package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Times are nanoseconds since the tracer started;
// Parent is the id of the span that caused this one (0 = none); spans of
// one operation share OpID.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// newOp allocates the id shared by the spans of one operation.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, start, end int64, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, OpID: op})
	return id
}

// timed runs f inside a span and returns the span's duration in ms.
func (t *tracer) timed(name string, parent, op int, f func()) float64 {
	start := t.now()
	f()
	end := t.now()
	t.add(name, start, end, parent, op)
	return float64(end-start) / 1e6
}

// linkByOp makes every span named child a child of the span named parent
// that shares its operation: a server-side span cannot know the id of the
// client-side span that caused it until both have ended.
func (t *tracer) linkByOp(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int]int{}
	for _, s := range t.spans {
		if s.Name == parent {
			byOp[s.OpID] = s.ID
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == child && s.OpID != 0 {
			s.Parent = byOp[s.OpID]
		}
	}
}

// selfMS returns, per span name, each span's self time in ms: its duration
// minus the part of that interval its child spans cover (overlapping
// children, such as shard handlers running in parallel, count once).
func (t *tracer) selfMS() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
