// Command benchmark is the one benchmark for the whole fastbfs stack: eight
// workloads from the traversal kernel to a replicated cluster, end-to-end
// metrics a client sees, and a per-layer trace recorded from outside the
// program. See README.md in this directory for every definition.
//
// The driver contract (BENCHMARK.json) runs one workload per invocation:
//
//	bash benchmark/run.sh --workload serve-hot --seed 7 --seconds 8 --trace 0
//
// Without --workload every workload runs, untraced then traced; with
// --repeat N the untraced suite runs N times and the runs are compared
// against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 20120521 // hold-out seed for claims: 20120563
	graphName   = "g"
)

// sizes fixes every input size; it is the same on parent and change.
type sizes struct {
	bigScale    int // offline-rmat: DP array larger than L2
	smallScale  int // serve-*, cluster-*: ms-scale queries
	gridSide    int // offline-grid: thousands of near-empty levels
	rmatRoots   int // offline-rmat pool
	gridRoots   int // offline-grid pool: level counts differ 2x with position, so more roots
	serialRoots int // roots whose bfs.RunSerial time is core.serial_ms_p50
	pool        int // serve/cluster source pool; per-client share must exceed the 32-entry LRU
	hot         int // serve-hot: Zipf over this many pool sources
	setupReps   int // set-ups per run; setup_s is their median
	minServeQPS float64
	minClustQPS float64
}

var (
	fullSizes = sizes{
		bigScale: 20, smallScale: 18, gridSide: 1024,
		rmatRoots: 16, gridRoots: 32, serialRoots: 8, pool: 96, hot: 16, setupReps: 3,
		// ISSUE floor: 1,000 successes per 12 s serve window, 100 per 15 s
		// cluster window, kept as rates because the windows are shorter.
		minServeQPS: 1000.0 / 12, minClustQPS: 100.0 / 15,
	}
	quickSizes = sizes{
		bigScale: 14, smallScale: 14, gridSide: 64,
		rmatRoots: 8, gridRoots: 8, serialRoots: 4, pool: 96, hot: 16, setupReps: 1,
	}
)

// env is one invocation's settings and shared state.
type env struct {
	root    string // checkout root (holds go.mod of module fastbfs)
	outDir  string // benchmark/out: logs, trace.jsonl, scratch graphs and state dirs
	bfsd    string // built daemon binary
	buildS  float64
	seed    uint64
	seconds float64
	sz      sizes

	tr       *tracer  // non-nil on traced runs
	cmdlines []string // exact daemon command lines, for provenance
}

// setUp sets the system under test up e.sz.setupReps times, stopping all
// but the last, and returns the last one with the median set-up time.
func setUp[T interface{ stop() }](e *env, m metrics, start func() (T, error)) (T, error) {
	var sys T
	times := make([]float64, e.sz.setupReps)
	for rep := range times {
		if rep > 0 {
			sys.stop()
		}
		t0 := time.Now()
		var err error
		if sys, err = start(); err != nil {
			return sys, err
		}
		times[rep] = time.Since(t0).Seconds()
	}
	m.set("setup_s", median(times), len(times))
	return sys, nil
}

// warmup is the untimed lead-in of every timed window.
func (e *env) warmup() time.Duration { return e.window(0.25) }

// window converts a share of --seconds into a duration.
func (e *env) window(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// workload is one named set of inputs. run returns the metrics of the
// traced pass when env.tr is set, of the untraced pass otherwise, and the
// timed window's op counts.
type workload struct {
	name string
	why  string
	run  func(e *env) (metrics, *window, *inputs, error)
}

var workloads = []workload{
	{"offline-rmat", "in-process engine on R-MAT scale 20: internal/core (hybrid, bottom-up, VIS) does all the work; serve, index and cluster do none",
		func(e *env) (metrics, *window, *inputs, error) { return runOffline(e, "rmat-big", e.sz.rmatRoots) }},
	{"offline-grid", "same engine on a 1024x1024 grid: 2,047 near-empty levels, so per-level fixed cost dominates and the hybrid never switches",
		func(e *env) (metrics, *window, *inputs, error) { return runOffline(e, "grid", e.sz.gridRoots) }},
	{"serve-uniform", "bfsd over HTTP, 2 closed-loop clients, every query a cache miss: one pooled engine run per request; batcher, cache and index bypassed",
		func(e *env) (metrics, *window, *inputs, error) { return runServe(e, serveSpec{clients: 2}) }},
	{"serve-burst", "same daemon, 8 clients: dispatch rounds reach BatchThreshold, so internal/msbfs sweeps and the scheduler do most of the work",
		func(e *env) (metrics, *window, *inputs, error) { return runServe(e, serveSpec{clients: 8}) }},
	{"serve-hot", "same daemon, 2 clients, Zipf(1.1) over 16 hot sources: LRU hits answer nearly everything, so cache lookup, JSON and net/http are the whole cost",
		func(e *env) (metrics, *window, *inputs, error) { return runServe(e, serveSpec{clients: 2, hot: true}) }},
	{"serve-distance", "serve-uniform's stream as distance_only against a mounted 64-landmark index: label join plus exact-BFS fallback, the effective point-distance rate",
		func(e *env) (metrics, *window, *inputs, error) {
			return runServe(e, serveSpec{clients: 2, distance: true})
		}},
	{"cluster-r1", "3 shard processes + coordinator, 1 client: coordinator round, wire codec, shard expand and per-round checkpoint fsync; core, serve and index bypassed",
		func(e *env) (metrics, *window, *inputs, error) { return runCluster(e, 1) }},
	{"cluster-r2", "same with -replicas 2 (6 shards), replica audit and coordinator journal on: the round protocol paying for the PR 9-10 defences",
		func(e *env) (metrics, *window, *inputs, error) { return runCluster(e, 2) }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome is one pass of one workload.
type outcome struct {
	workload string
	traced   bool
	m        metrics
	win      *window
	correct  bool
	reason   string // why correct is false
}

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) line() resultLine {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	out := resultLine{Correct: o.correct, Attempted: o.win.attempted, Failed: o.win.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{o.m[d.name].value, d.unit}
	}
	return out
}

// runOne runs one pass of one workload and prints its report.
func runOne(e *env, w *workload, traced bool) (*outcome, error) {
	e.tr, e.cmdlines = nil, nil
	if traced {
		e.tr = newTracer()
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	start := time.Now()
	m, win, in, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o := &outcome{workload: w.name, traced: traced, m: m, win: win, correct: true}
	switch {
	case win.attempted < 1:
		o.correct, o.reason = false, "no operation attempted"
	case win.failed > 0:
		o.correct, o.reason = false, fmt.Sprintf("%d of %d ops failed, first: %s", win.failed, win.attempted, win.firstErr)
	}
	if !traced {
		// An end-to-end metric that was not measured must not read as 0.
		for _, d := range endToEnd {
			if v, ok := m[d.name]; !ok || v.value <= 0 {
				return nil, fmt.Errorf("%s: end-to-end metric %s not measured", w.name, d.name)
			}
		}
	} else if err := e.tr.writeJSONL(filepath.Join(e.outDir, "trace.jsonl")); err != nil {
		return nil, err
	}
	printReport(e, o, in, time.Since(start))
	return o, nil
}

func printReport(e *env, o *outcome, in *inputs, took time.Duration) {
	pass := "untraced"
	defs := endToEnd
	if o.traced {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("== %s (%s, seed %d, %.0f s windows, took %.1f s)\n", o.workload, pass, e.seed, e.seconds, took.Seconds())
	prov, _ := json.Marshal(provenance(e, in, o.win))
	fmt.Printf("provenance %s\n", prov)
	for _, d := range defs {
		v := o.m[d.name]
		fmt.Printf("  %-34s %14.4f %-7s n=%-6d (%s is better)\n", d.name, v.value, d.unit, v.n, d.better)
	}
	if o.traced {
		fmt.Println("  span self time (duration minus what child spans cover), ms total x count:")
		self := e.tr.selfMS()
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-28s %12.3f x %d\n", name, mean(self[name])*float64(len(self[name])), len(self[name]))
		}
	}
	if !o.correct {
		fmt.Printf("  INCORRECT: %s\n", o.reason)
	}
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module fastbfs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a fastbfs checkout (no go.mod of module fastbfs above the working directory)")
		}
		dir = parent
	}
}

func main() {
	code := 0
	defer func() { os.Exit(code) }()
	defer killAll()
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
}

// newEnv finds the checkout, prepares the out directory and builds bfsd.
func newEnv(seed uint64, seconds float64, sz sizes) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out"), seed: seed, seconds: seconds, sz: sz}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.bfsd, e.buildS, err = buildBfsd(e); err != nil {
		return nil, err
	}
	return e, nil
}

// runAll runs every workload, untraced then traced.
func runAll(e *env) (map[string]resultLine, error) {
	all := map[string]resultLine{}
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := runOne(e, &workloads[i], traced)
			if err != nil {
				return nil, err
			}
			key := o.workload
			if traced {
				key += "/traced"
			}
			all[key] = o.line()
		}
	}
	return all, nil
}

func realMain() error {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", defaultSeed, "drives graph generation, the source pool and every request stream")
	seconds := flag.Float64("seconds", 8, "length of each timed window")
	trace := flag.Int("trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass (with -workload all both run)")
	repeat := flag.Int("repeat", 0, "run the untraced suite this many times and check the runs against BENCHMARK.json's bounds")
	quick := flag.Bool("quick", false, "smoke sizes: scale 14, 64x64 grid, one set-up per run")
	flag.Parse()
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	e, err := newEnv(*seed, *seconds, sz)
	if err != nil {
		return err
	}
	if *repeat > 0 {
		return repeatCheck(e, *repeat)
	}
	if *name == "all" {
		all, err := runAll(e)
		if err != nil {
			return err
		}
		return printLine(all)
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	o, err := runOne(e, w, *trace == 1)
	if err != nil {
		return err
	}
	return printLine(o.line())
}

func printLine(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(raw))
	return err
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, d := range mf.EndToEnd {
		if d.Bound == nil {
			return nil, fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", d.Name)
		}
	}
	return &mf, nil
}

// repeatCheck runs the untraced suite n times on the same code and seed
// and compares every end-to-end metric x workload between runs against the
// bound BENCHMARK.json fixes for it. Any pair outside its bound, and any
// failed op, is an error.
func repeatCheck(e *env, n int) error {
	mf, err := readManifest(e.root)
	if err != nil {
		return err
	}
	runs := make([]map[string]*outcome, n)
	for r := range runs {
		runs[r] = map[string]*outcome{}
		for i := range workloads {
			o, err := runOne(e, &workloads[i], false)
			if err != nil {
				return err
			}
			runs[r][o.workload] = o
		}
	}
	fmt.Printf("\n| workload | metric | unit | %s | largest difference from run 1 | bound | ok |\n", runLabels(n))
	fmt.Printf("|---|---|---|%s---|---|---|\n", strings.Repeat("---|", n))
	bad := 0
	for _, w := range workloads {
		for r := range runs {
			if o := runs[r][w.name]; !o.correct {
				fmt.Printf("| %s | fail_share | ratio | run %d: %s | | 0 | NO |\n", w.name, r+1, o.reason)
				bad++
			}
		}
		for _, d := range mf.EndToEnd {
			base := runs[0][w.name].m[d.Name].value
			vals := make([]string, n)
			worst := 0.0
			for r := range runs {
				v := runs[r][w.name].m[d.Name].value
				vals[r] = fmt.Sprintf("%.4f", v)
				// Either run may be the slow one: take the difference as a
				// share of the smaller value, whichever run holds it.
				worst = max(worst, math.Abs(v-base)/min(v, base))
			}
			ok := "yes"
			if worst > *d.Bound {
				ok = "NO"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %s | %.3f | %.2f | %s |\n",
				w.name, d.Name, d.Unit, strings.Join(vals, " | "), worst, *d.Bound, ok)
		}
	}
	if bad > 0 {
		return fmt.Errorf("repeat check: %d metric x workload pairs outside their bound", bad)
	}
	return nil
}

func runLabels(n int) string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("run %d", i+1)
	}
	return strings.Join(labels, " | ")
}
