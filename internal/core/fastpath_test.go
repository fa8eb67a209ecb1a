package core

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/numa"
	"fastbfs/internal/par"
)

// levelShape renders an instrumented run one letter per level: "s" for a
// fast-path level, "T" for a cohort top-down level, "B" for bottom-up.
func levelShape(res *Result) string {
	var b strings.Builder
	for _, s := range res.Trace.Steps {
		switch {
		case s.BottomUp:
			b.WriteByte('B')
		case s.Serial:
			b.WriteByte('s')
		default:
			b.WriteByte('T')
		}
	}
	return b.String()
}

// TestFastPathTransitions drives one R-MAT run through every hand-over:
// serial prologue → cohort top-down → bottom-up → serial tail (entered
// from finishStep). At one worker nothing races, so the direction
// sequence and every level's frontier, edge and claim counts must equal
// the run with the fast path off — the contract model.PredictDirections
// relies on.
func TestFastPathTransitions(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(15, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	const source = 17
	cfg := DefaultConfig(1)
	cfg.Workers = 1
	cfg.Hybrid = true
	cfg.Alpha = 2 // late switch: leaves room for a cohort top-down level
	cfg.Instrument = true
	cfg.InAdj = func() *graph.Graph { return g.Transpose() }
	run := func(bound int64) *Result {
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.serialBelow = bound
		res, err := e.Run(source)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(0), run(serialLevelWork)

	if shape := levelShape(off); strings.Contains(shape, "s") {
		t.Fatalf("fast path off, yet levels ran serially: %s", shape)
	}
	shape := levelShape(on)
	if !regexp.MustCompile(`^s+T+B+s+$`).MatchString(shape) {
		t.Fatalf("level shape %q does not cover serial → cohort → bottom-up → serial tail", shape)
	}
	if a, b := DirectionString(off.Directions), DirectionString(on.Directions); a != b {
		t.Fatalf("directions differ: off %s, on %s", a, b)
	}
	if off.Steps != on.Steps || off.EdgesTraversed != on.EdgesTraversed ||
		off.Visited != on.Visited || off.Appends != on.Appends {
		t.Fatalf("totals differ: off %d/%d/%d/%d, on %d/%d/%d/%d",
			off.Steps, off.EdgesTraversed, off.Visited, off.Appends,
			on.Steps, on.EdgesTraversed, on.Visited, on.Appends)
	}
	for i, a := range off.Trace.Steps {
		b := on.Trace.Steps[i]
		if a.Step != b.Step || a.Frontier != b.Frontier || a.Edges != b.Edges || a.NewVertices != b.NewVertices {
			t.Fatalf("level %d differs: off %+v, on %+v", i+1, a, b)
		}
	}
	// A serial level charges the traffic the cohort's would, bar the bins
	// it does not fill.
	for _, st := range []numa.Structure{numa.StructAdj, numa.StructBV, numa.StructDP, numa.StructVIS} {
		if a, b := off.Trace.Traffic.Total(st), on.Trace.Traffic.Total(st); a != b || a == 0 {
			t.Errorf("%v traffic: off %d bytes, on %d", st, a, b)
		}
	}
	ref, err := SerialBFS(g, source)
	if err != nil {
		t.Fatal(err)
	}
	sameDepths(t, g, ref, on, "fast path on")
	checkParents(t, g, on, source, "fast path on")
	if on.Trace.SerialSteps != strings.Count(shape, "s") {
		t.Errorf("trace counts %d serial steps, shape %s", on.Trace.SerialSteps, shape)
	}
}

// TestFastPathAllSerialContracts pins the run-level contracts on a run
// that never leaves the prologue (a grid: the cohort is never launched):
// the hook fires once per level, cancellation aborts within one level
// and leaves the engine exact, a panicking hook surfaces as the typed
// abort error with the engine reusable, and MaxSteps still trips.
func TestFastPathAllSerialContracts(t *testing.T) {
	g, err := gen.Grid2D(48, 48, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SerialBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var hook func(step int)
	cfg := DefaultConfig(1)
	cfg.Workers = 4
	cfg.Instrument = true
	cfg.StepHook = func(step int) {
		calls++
		if step != calls {
			t.Errorf("hook call %d reports step %d", calls, step)
		}
		if hook != nil {
			hook(step)
		}
	}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(label string) {
		t.Helper()
		calls = 0
		res, err := e.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameDepths(t, g, ref, res, label)
		if res.Steps != ref.Steps || calls != res.Steps {
			t.Fatalf("%s: %d steps, %d hook calls, want %d", label, res.Steps, calls, ref.Steps)
		}
		if res.Trace.SerialSteps != res.Steps {
			t.Fatalf("%s: only %d of %d levels serial", label, res.Trace.SerialSteps, res.Steps)
		}
	}
	exact("first run")

	const at = 20
	ctx, cancel := context.WithCancel(context.Background())
	hook = func(step int) {
		if step == at {
			cancel()
		}
	}
	calls = 0
	if _, err := e.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel at level %d: got %v, want context.Canceled", at, err)
	}
	if calls != at {
		t.Fatalf("cancelled at level %d but %d levels ran", at, calls)
	}
	hook = nil
	exact("after cancel")

	hook = func(step int) {
		if step == at {
			panic("injected")
		}
	}
	calls = 0
	_, err = e.Run(0)
	var pe *par.PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "core: traversal aborted") {
		t.Fatalf("hook panic: got %v, want the traversal-aborted *par.PanicError", err)
	}
	hook = nil
	exact("after panic")

	cfg.MaxSteps = 5
	limited, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	if _, err := limited.Run(0); err == nil || !strings.Contains(err.Error(), "step limit 5 exceeded") {
		t.Fatalf("MaxSteps=5: got %v", err)
	}
}

// TestFastPathEngineReuse alternates, on one engine, a source whose run
// never leaves the prologue (a path component) with one that goes
// through the cohort and back (the R-MAT component), under every bound.
func TestFastPathEngineReuse(t *testing.T) {
	rmat, err := gen.RMAT(gen.Graph500Params(13, 16), 7)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(rmat.NumVertices())
	const tail = 300
	var edges []graph.Edge
	for u := uint32(0); u < n; u++ {
		for _, v := range rmat.Neighbors[rmat.Offsets[u]:rmat.Offsets[u+1]] {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	for v := n; v+1 < n+tail; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g, err := graph.FromEdges(int(n)+tail, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, hybrid := range []bool{false, true} {
		cfg := DefaultConfig(1)
		cfg.Workers = 4
		cfg.Hybrid = hybrid
		cfg.Instrument = true
		cfg.InAdj = func() *graph.Graph { return g.Transpose() }
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range serialBounds {
			e.serialBelow = bound
			for _, src := range []uint32{n, 0, n + 7, 1, n, 17} {
				label := fmt.Sprintf("hybrid=%v/serial<%d/src=%d", hybrid, bound, src)
				ref, err := SerialBFS(g, src)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(src)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameDepths(t, g, ref, res, label)
				checkParents(t, g, res, src, label)
				if res.Visited != ref.Visited || res.Steps != ref.Steps {
					t.Fatalf("%s: visited %d in %d steps, want %d in %d",
						label, res.Visited, res.Steps, ref.Visited, ref.Steps)
				}
				if bound != serialLevelWork {
					continue
				}
				shape := levelShape(res)
				if onPath := src >= n; onPath != !strings.ContainsAny(shape, "TB") {
					t.Fatalf("%s: level shape %s", label, shape)
				}
			}
		}
	}
}
