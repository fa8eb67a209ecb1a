// Command bfsrun traverses a graph (loaded from a CSR file written by
// graphgen, or generated on the fly from a generator spec, as graphgen
// takes it) and reports traversal rate, per-step metrics and validation
// status.
//
// Usage:
//
//	bfsrun -graph rmat.csr -source 0 -sockets 2
//	bfsrun -graph rmat:scale=18,ef=16 -trace
//	bfsrun -graph rmat:scale=18 -sources 0,17,4242 -serial=false
//	bfsrun -graph rmat:scale=20 -hybrid           # direction-optimizing
//	bfsrun -graph road.csr -hybrid -alpha 100     # eager switch-down
//
// With -sources, one engine is reused across every source (the serving
// pattern): per-source and aggregate MTEPS are reported, and
// -trace/-csv are ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fastbfs/bfs"
	"fastbfs/graph"
	"fastbfs/graph/gen"
	"fastbfs/internal/stats"
)

func main() {
	graphSrc := flag.String("graph", "", "CSR graph file (from graphgen) or generator spec kind:key=value,... (required); kinds and defaults:"+gen.SpecUsage())
	source := flag.Int("source", -1, "starting vertex (-1 = best of 8 probes)")
	sourcesFlag := flag.String("sources", "", "comma-separated sources; one engine is reused across all of them")
	sockets := flag.Int("sockets", 2, "simulated sockets (power of two)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	visFlag := flag.String("vis", "partitioned", "none | atomic | byte | bit | partitioned")
	schemeFlag := flag.String("scheme", "lb", "single | aware | lb")
	hybrid := flag.Bool("hybrid", false, "direction-optimizing traversal (bottom-up heavy levels)")
	alpha := flag.Float64("alpha", 0, "hybrid switch-down threshold (0 = default)")
	beta := flag.Float64("beta", 0, "hybrid switch-back threshold (0 = default)")
	symmetric := flag.Bool("symmetric", false, "assert the graph is symmetric (hybrid skips the transpose)")
	serial := flag.Bool("serial", false, "also run the serial reference")
	doValidate := flag.Bool("validate", true, "validate the BFS tree")
	doTrace := flag.Bool("trace", false, "print per-step metrics")
	csvPath := flag.String("csv", "", "write per-step metrics as CSV to this file (implies -trace)")
	timeout := flag.Duration("timeout", 0, "abort the traversal after this duration (0 = no limit)")
	flag.Parse()
	if *csvPath != "" {
		*doTrace = true
	}

	if *graphSrc == "" {
		fmt.Fprintln(os.Stderr, "bfsrun: -graph is required")
		os.Exit(1)
	}
	g, err := gen.Open(*graphSrc, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %s\n", graph.ComputeStats(g))

	src := uint32(0)
	if *source >= 0 {
		src = uint32(*source)
	} else {
		src, _ = graph.LargestReach(g, 8)
	}

	vis := map[string]bfs.VISKind{
		"none": bfs.VISNone, "atomic": bfs.VISAtomicBit, "byte": bfs.VISByte,
		"bit": bfs.VISBit, "partitioned": bfs.VISPartitioned,
	}[*visFlag]
	scheme := map[string]bfs.Scheme{
		"single": bfs.SchemeSinglePhase, "aware": bfs.SchemeSocketAware,
		"lb": bfs.SchemeLoadBalanced,
	}[*schemeFlag]

	o := bfs.Default(*sockets)
	o.VIS = vis
	o.Scheme = scheme
	o.Workers = *workers
	o.Instrument = *doTrace
	o.Hybrid = *hybrid
	o.Alpha, o.Beta = *alpha, *beta
	o.Symmetric = *symmetric

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sourcesFlag != "" {
		runSources(ctx, g, o, *sourcesFlag, *doValidate, *timeout)
		return
	}

	res, err := bfs.RunContext(ctx, g, src, o)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "bfsrun: traversal exceeded -timeout %v\n", *timeout)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("source %d: visited %s vertices, traversed %s edges in %d steps\n",
		src, stats.HumanCount(res.Visited), stats.HumanCount(res.EdgesTraversed), res.Steps)
	fmt.Printf("elapsed %v  =>  %.1f MTEPS (duplicate work: %d appends)\n",
		res.Elapsed, res.MTEPS(), res.Appends-res.Visited)
	if len(res.Directions) > 0 {
		fmt.Printf("directions: %s\n", bfs.DirectionString(res.Directions))
	}

	if *doTrace && res.Trace != nil {
		t := stats.NewTable("step", "frontier", "edges", "new", "pbv", "shared", "maxShare", "t1", "t2", "tR")
		for _, s := range res.Trace.Steps {
			t.AddRow(s.Step, s.Frontier, s.Edges, s.NewVertices, s.PBVEntries,
				s.SharedBins, s.MaxSocketShare, s.Phase1.String(), s.Phase2.String(), s.Rearr.String())
		}
		t.Render(os.Stdout)
		fmt.Printf("%d of %d levels serial\n", res.Trace.SerialSteps, res.Steps)
	}

	if *csvPath != "" && res.Trace != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
			os.Exit(1)
		}
		if err := res.Trace.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "bfsrun: writing CSV: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("per-step metrics written to %s\n", *csvPath)
	}

	if *serial {
		ref, err := bfs.RunSerial(g, src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsrun: serial: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serial: %v => %.1f MTEPS (parallel speedup %.2fx)\n",
			ref.Elapsed, ref.MTEPS(), res.MTEPS()/ref.MTEPS())
	}

	if *doValidate {
		if err := bfs.Validate(g, res); err != nil {
			fmt.Fprintf(os.Stderr, "bfsrun: VALIDATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("validation: OK (valid BFS tree, depths match serial reference)")
	}
}

// runSources reuses ONE engine across a comma-separated source list —
// the serving pattern, where engine construction is paid once — and
// reports per-source and aggregate traversal rates.
func runSources(ctx context.Context, g *graph.Graph, o bfs.Options, list string, doValidate bool, timeout time.Duration) {
	var sources []uint32
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil || int(v) >= g.NumVertices() {
			fmt.Fprintf(os.Stderr, "bfsrun: bad source %q in -sources\n", part)
			os.Exit(1)
		}
		sources = append(sources, uint32(v))
	}

	buildStart := time.Now()
	e, err := bfs.NewEngine(g, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("engine built once in %v, reused for %d sources\n",
		time.Since(buildStart).Round(time.Microsecond), len(sources))

	var totEdges, totVisited int64
	var totElapsed time.Duration
	for _, src := range sources {
		res, err := e.RunContext(ctx, src)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "bfsrun: traversal exceeded -timeout %v\n", timeout)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "bfsrun: source %d: %v\n", src, err)
			os.Exit(1)
		}
		fmt.Printf("source %8d: visited %8s  edges %9s  steps %3d  %10v  %8.1f MTEPS\n",
			src, stats.HumanCount(res.Visited), stats.HumanCount(res.EdgesTraversed),
			res.Steps, res.Elapsed.Round(time.Microsecond), res.MTEPS())
		if doValidate {
			if err := bfs.Validate(g, res); err != nil {
				fmt.Fprintf(os.Stderr, "bfsrun: source %d: VALIDATION FAILED: %v\n", src, err)
				os.Exit(1)
			}
		}
		totEdges += res.EdgesTraversed
		totVisited += res.Visited
		totElapsed += res.Elapsed
	}
	agg := 0.0
	if s := totElapsed.Seconds(); s > 0 {
		agg = float64(totEdges) / s / 1e6
	}
	fmt.Printf("aggregate: %d sources, visited %s, traversed %s in %v  =>  %.1f MTEPS\n",
		len(sources), stats.HumanCount(totVisited), stats.HumanCount(totEdges),
		totElapsed.Round(time.Microsecond), agg)
	if doValidate {
		fmt.Println("validation: OK (all sources, valid BFS trees matching serial reference)")
	}
}
