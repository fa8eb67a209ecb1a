package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" | "lower"
}

// endToEnd is what a user of the system sees. Every workload emits every
// one of them (--trace 0). An "op" is one BFS run for offline-*, one HTTP
// request for serve-* and cluster-*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"qps", "1/s", "higher"},
	{"lat_ms_p50", "ms", "lower"},
	{"lat_ms_p90", "ms", "lower"},
	{"hmean_mteps", "MTEPS", "higher"},
}

// perLayer is what the traced pass measures around each layer's public
// functions (--trace 1). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"graph.load_ms", "ms", "lower"},
	{"graph.mmap_load_ms", "ms", "lower"},
	{"graph.load_mb_s", "MB/s", "higher"},
	{"graph.transpose_ms", "ms", "lower"},

	{"tune.calibrate_ms", "ms", "lower"},
	{"tune.hybrid_enabled", "count", "higher"},
	{"tune.pred_over_meas", "ratio", "lower"},

	{"core.new_engine_ms", "ms", "lower"},
	{"core.run_ms_p50", "ms", "lower"},
	{"core.phase1_ms", "ms", "lower"},
	{"core.phase2_ms", "ms", "lower"},
	{"core.rearr_ms", "ms", "lower"},
	{"core.step_overhead_ms", "ms", "lower"},
	{"core.us_per_level", "us", "lower"},
	{"core.levels", "count", "lower"},
	{"core.bottomup_levels", "count", "higher"},
	{"core.edges_examined", "count", "lower"},
	{"core.examined_per_teps_edge", "ratio", "lower"},
	{"core.dup_append_share", "ratio", "lower"},
	{"core.bytes_per_edge_computed", "B/edge", "lower"},
	{"core.serial_ms_p50", "ms", "lower"},

	{"msbfs.sweep_ms_w8", "ms", "lower"},
	{"msbfs.sweep_ms_w64", "ms", "lower"},
	{"msbfs.sharing_factor_w8", "ratio", "higher"},
	{"msbfs.sharing_factor_w64", "ratio", "higher"},
	{"msbfs.batch_gain_w8", "ratio", "higher"},
	{"msbfs.batch_gain_w64", "ratio", "higher"},

	{"serve.query_miss_ms_p50", "ms", "lower"},
	{"serve.miss_overhead_ms", "ms", "lower"},
	{"serve.query_hit_us_p50", "us", "lower"},
	{"serve.cache_hit_share", "ratio", "higher"},
	{"serve.coalesced_share", "ratio", "higher"},
	{"serve.batched_share", "ratio", "higher"},
	{"serve.lanes_per_sweep", "count", "higher"},
	{"serve.engine_runs", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.expired", "count", "lower"},
	{"serve.measured_mteps", "MTEPS", "higher"},
	{"serve.sum_check", "ratio", "higher"},

	{"http.hit_overhead_us_p50", "us", "lower"},
	{"http.miss_overhead_us", "us", "lower"},
	{"http.resp_bytes_p50", "B", "lower"},
	{"http.encode_all_depths_ms", "ms", "lower"},

	{"index.build_ms", "ms", "lower"},
	{"index.label_mb", "MB", "lower"},
	{"index.entries_per_vertex", "count", "lower"},
	{"index.query_ns_p50", "ns", "lower"},
	{"index.exact_share", "ratio", "higher"},
	{"index.fallback_share", "ratio", "lower"},

	{"coord.run_ms_p50", "ms", "lower"},
	{"coord.rounds", "count", "lower"},
	{"coord.round_ms_p50", "ms", "lower"},
	{"coord.overhead_ms_per_round", "ms", "lower"},
	{"coord.r2_over_r1", "ratio", "lower"},
	{"coord.retries", "count", "lower"},
	{"coord.epoch_restarts", "count", "lower"},
	{"coord.failovers", "count", "lower"},
	{"coord.hedges", "count", "lower"},
	{"coord.divergences", "count", "lower"},
	{"coord.sum_check", "ratio", "higher"},

	{"shard.handler_ms_per_round", "ms", "lower"},
	{"shard.handler_nockpt_ms_per_round", "ms", "lower"},

	{"wire.bytes_out_per_round", "B", "lower"},
	{"wire.bytes_in_per_round", "B", "lower"},
	{"wire.encode_us_p50", "us", "lower"},
	{"wire.decode_us_p50", "us", "lower"},

	{"checkpoint.save_ms_p50", "ms", "lower"},
	{"checkpoint.bytes", "B", "lower"},

	{"journal.append_ms_p50", "ms", "lower"},

	{"trace.overhead_share", "ratio", "lower"},
	{"host.membw_gb_s", "GB/s", "higher"},
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// metrics collects one run's values by name.
type metrics map[string]measured

func (m metrics) set(name string, v float64, n int) { m[name] = measured{v, n} }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opSample is one completed, verified operation of a timed window.
type opSample struct {
	latMS float64
	teps  int64   // Graph500 numerator of the traversal the op stands for
	endS  float64 // when it completed, in seconds of the window's clock
}

// window is the outcome of one timed window of operations. Its clock is
// wall time for closed-loop clients and engine busy time for offline runs.
type window struct {
	start     time.Time // wall-clock windows only
	ops       []opSample
	attempted int
	failed    int
	elapsedS  float64
	firstErr  string
}

// add records a successful op that completed now.
func (w *window) add(latMS float64, teps int64) {
	w.ops = append(w.ops, opSample{latMS, teps, time.Since(w.start).Seconds()})
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
}

// requireRate fails the window when it completed fewer successes per
// second than the floor: too few samples to stand behind its percentiles.
func (w *window) requireRate(floor float64) {
	if rate := float64(len(w.ops)) / w.elapsedS; rate < floor {
		w.fail("only %.1f successes/s, the floor is %.1f", rate, floor)
	}
}

func (w *window) merge(o *window) {
	w.ops = append(w.ops, o.ops...)
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == "" {
		w.firstErr = o.firstErr
	}
}

func (w *window) latencies() []float64 { return latencies(w.ops) }

func latencies(ops []opSample) []float64 {
	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = op.latMS
	}
	return lat
}

// hmeanMTEPS is the harmonic mean over ops of (Graph500 edges of the op's
// traversal) / (op latency) — for cache and index answers the rate a
// client would need from its own BFS to match.
func hmeanMTEPS(ops []opSample) float64 {
	var inv float64
	for _, op := range ops {
		inv += op.latMS / 1e3 / float64(op.teps)
	}
	return ratio(float64(len(ops)), inv) / 1e6
}

// windowSlices is how many equal slices a window is cut into. The rate and
// tail metrics are computed per slice and the median slice is reported: a
// burst of interference from the host (this is a shared 2-core VM) then
// costs a slice, not the run's number.
const windowSlices = 5

// endToEndMetrics derives the steady-state end-to-end metrics.
func (w *window) endToEndMetrics(m metrics) {
	n := len(w.ops)
	m.set("lat_ms_p50", median(w.latencies()), n)
	sliceS := w.elapsedS / windowSlices
	per := make([][]opSample, windowSlices)
	for _, op := range w.ops {
		k := min(int(op.endS/sliceS), windowSlices-1)
		per[k] = append(per[k], op)
	}
	var qps, p90, mteps []float64
	for _, ops := range per {
		qps = append(qps, float64(len(ops))/sliceS)
		if len(ops) > 0 {
			p90 = append(p90, quantile(latencies(ops), 0.90))
			mteps = append(mteps, hmeanMTEPS(ops))
		}
	}
	m.set("qps", median(qps), n)
	m.set("lat_ms_p90", median(p90), n)
	m.set("hmean_mteps", median(mteps), n)
}
