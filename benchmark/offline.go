package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/tune"
)

// offlineSystem is the system under test of the offline workloads: a
// loaded graph, its tuning profile and one engine, all in this process.
type offlineSystem struct {
	g    *graph.Graph
	prof *tune.Profile
	eng  *bfs.Engine
}

// setUpOffline does what an offline user does before the first traversal:
// graph.Load, tune.Calibrate, the transpose a hybrid profile needs, and
// bfs.NewEngine.
func setUpOffline(path string) (*offlineSystem, error) {
	g, err := graph.Load(path)
	if err != nil {
		return nil, err
	}
	prof := tune.Calibrate(g, tune.Options{})
	if prof.Hybrid {
		bfs.InAdjacency(g)
	}
	eng, err := bfs.NewEngine(g, prof.Apply(bfs.Default(1)))
	if err != nil {
		return nil, err
	}
	return &offlineSystem{g: g, prof: prof, eng: eng}, nil
}

// stop releases the cached transpose, which pins the graph.
func (s *offlineSystem) stop() { bfs.ReleaseInAdjacency(s.g) }

// checkResult compares an engine result with the serial reference: depths
// exact, and every visited vertex's parent one level above it. (That the
// parent edge exists is checked by internal/validate on the warm-up run;
// it costs a scan per vertex and would dwarf the timed work.)
func checkResult(r *bfs.Result, t *truth) error {
	if r.Visited != t.visited {
		return fmt.Errorf("source %d: visited %d, serial %d", r.Source, r.Visited, t.visited)
	}
	for v, want := range t.depth {
		got := r.Depth(uint32(v))
		if got != int32(want) {
			return fmt.Errorf("source %d: vertex %d depth %d, serial %d", r.Source, v, got, want)
		}
		if got > 0 {
			if p := r.Parent(uint32(v)); p < 0 || int32(t.depth[p]) != got-1 {
				return fmt.Errorf("source %d: vertex %d at depth %d has parent %d not one level up", r.Source, v, got, p)
			}
		}
	}
	return nil
}

// engineRun is one checked run of a timed engine window.
type engineRun struct {
	root     int // pool index
	res      *bfs.Result
	ms       float64
	span, op int   // the run's core.run span, when traced
	start    int64 // tracer time the run started, when traced
}

// runEngineWindow runs roots round-robin for d (and at least once each),
// timing and checking every run. Busy time excludes the checks. With a
// tracer every run is a core.run span of its own operation.
func runEngineWindow(eng *bfs.Engine, in *inputs, d time.Duration, tr *tracer, each func(engineRun)) *window {
	win := &window{}
	var busy time.Duration
	for i := 0; busy < d || i < len(in.pool); i++ {
		run := engineRun{root: i % len(in.pool)}
		win.attempted++
		if tr != nil {
			run.op, run.start = tr.newOp(), tr.now()
		}
		t0 := time.Now()
		r, err := eng.Run(in.pool[run.root])
		el := time.Since(t0)
		if tr != nil {
			run.span = tr.add("core.run", run.start, tr.now(), 0, run.op)
		}
		busy += el
		if err == nil {
			err = checkResult(r, in.oracle[run.root])
		}
		if err != nil {
			win.fail("%v", err)
			continue
		}
		run.res, run.ms = r, float64(el.Nanoseconds())/1e6
		win.ops = append(win.ops, opSample{run.ms, in.oracle[run.root].teps, busy.Seconds()})
		if each != nil {
			each(run)
		}
	}
	win.elapsedS = busy.Seconds()
	return win
}

func runOffline(e *env, kind string, roots int) (metrics, *window, *inputs, error) {
	in, err := makeInputs(e, kind, roots)
	if err != nil {
		return nil, nil, nil, err
	}
	defer in.cleanup()
	if e.tr != nil {
		m, win, err := traceOffline(e, in)
		return m, win, in, err
	}

	// The system under test shares this process with the harness: release
	// the generator's graph and garbage before anything is resident-set
	// sampled.
	in.dropGraph()
	m := metrics{}
	sys, err := setUp(e, m, func() (*offlineSystem, error) { return setUpOffline(in.path) })
	if err != nil {
		return nil, nil, nil, err
	}
	defer sys.stop()
	debug.FreeOSMemory()

	// Untimed warm-up run, fully validated (parent edges included).
	warm, err := sys.eng.Run(in.pool[0])
	if err != nil {
		return nil, nil, nil, err
	}
	if err := bfs.Validate(sys.g, warm); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up run failed validation: %w", err)
	}

	rss := sampleRSS("self")
	win := runEngineWindow(sys.eng, in, e.window(1), nil, nil)
	rssMB, err := rss.medianMB()
	if err != nil {
		return nil, nil, nil, err
	}
	win.endToEndMetrics(m)
	m.set("rss_mb", rssMB, 1)
	return m, win, in, nil
}
