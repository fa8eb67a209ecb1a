package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's metric
// and workload tables in step: same names, units and directions, in the
// same order, with a bound of at most 0.25 on every end-to-end metric.
func TestManifestMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, mf.Workloads[i].Name, mf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
}

// TestQuickSuite runs all eight workloads, untraced and traced, at smoke
// sizes (scale 14, 64x64 grid, 0.8 s windows): every op must be correct,
// every end-to-end metric measured, and the five coordinator fault
// counters zero.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bfsd and launches daemons")
	}
	t.Cleanup(killAll)
	e, err := newEnv(defaultSeed, 0.8, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	all, err := runAll(e)
	if err != nil {
		t.Fatal(err)
	}
	for name, line := range all {
		if !line.Correct || line.Failed > 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
		}
	}
	for _, w := range []string{"cluster-r1/traced", "cluster-r2/traced"} {
		for _, c := range []string{"coord.retries", "coord.epoch_restarts", "coord.failovers", "coord.hedges", "coord.divergences"} {
			if v := all[w].Metrics[c].Value; v != 0 {
				t.Errorf("%s: %s = %v on a healthy topology", w, c, v)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "trace.jsonl")); err != nil {
		t.Errorf("traced pass left no trace.jsonl: %v", err)
	}
}
