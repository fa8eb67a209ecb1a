package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fastbfs/internal/numa"
)

func sample() *RunTrace {
	rt := &RunTrace{}
	rt.Add(StepMetrics{Step: 1, Frontier: 1, Edges: 8, NewVertices: 7, PBVEntries: 10, Serial: true,
		Phase1: time.Millisecond, Phase2: 2 * time.Millisecond, Rearr: time.Millisecond / 2})
	rt.Add(StepMetrics{Step: 2, Frontier: 7, Edges: 56, NewVertices: 40, PBVEntries: 60,
		Phase1: 3 * time.Millisecond, Phase2: 4 * time.Millisecond})
	rt.Finish()
	return rt
}

func TestFinishAggregates(t *testing.T) {
	rt := sample()
	if rt.TotalEdges != 64 {
		t.Errorf("TotalEdges = %d", rt.TotalEdges)
	}
	if rt.TotalVertices != 47 {
		t.Errorf("TotalVertices = %d", rt.TotalVertices)
	}
	if rt.TotalPBV != 70 {
		t.Errorf("TotalPBV = %d", rt.TotalPBV)
	}
	if rt.MaxFrontier != 7 {
		t.Errorf("MaxFrontier = %d", rt.MaxFrontier)
	}
	if rt.Depth() != 2 {
		t.Errorf("Depth = %d", rt.Depth())
	}
	if rt.SerialSteps != 1 {
		t.Errorf("SerialSteps = %d", rt.SerialSteps)
	}
	if rt.TimePhase1 != 4*time.Millisecond || rt.TimePhase2 != 6*time.Millisecond {
		t.Errorf("phase times wrong: %v %v", rt.TimePhase1, rt.TimePhase2)
	}
	if rt.String() == "" {
		t.Error("empty String")
	}
}

func TestAvgTraversedDegree(t *testing.T) {
	rt := sample()
	want := 64.0 / 47.0
	if got := rt.AvgTraversedDegree(); got != want {
		t.Errorf("rho' = %v, want %v", got, want)
	}
	empty := &RunTrace{}
	empty.Finish()
	if empty.AvgTraversedDegree() != 0 {
		t.Error("empty trace rho' != 0")
	}
}

func TestFinishIdempotent(t *testing.T) {
	rt := sample()
	e1 := rt.TotalEdges
	rt.Finish()
	if rt.TotalEdges != e1 {
		t.Error("Finish is not idempotent")
	}
}

func TestAlphaFallback(t *testing.T) {
	rt := &RunTrace{}
	if got := rt.Alpha(numa.StructAdj, 2); got != 0.5 {
		t.Errorf("no-traffic Alpha = %v, want 0.5", got)
	}
	rt.Traffic = numa.NewTraffic(2)
	rt.Traffic.Add(numa.StructAdj, 0, 0, 90)
	rt.Traffic.Add(numa.StructAdj, 1, 0, 10)
	if got := rt.Alpha(numa.StructAdj, 2); got != 0.9 {
		t.Errorf("Alpha = %v, want 0.9", got)
	}
}

func TestWriteCSV(t *testing.T) {
	rt := sample()
	var buf bytes.Buffer
	if err := rt.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 steps
		t.Fatalf("CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "step,direction,frontier,edges") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,T,1,8,7,10,") || !strings.HasSuffix(lines[1], ",true") {
		t.Errorf("first row wrong: %q", lines[1])
	}
	if !strings.HasSuffix(lines[0], ",serial") || !strings.HasSuffix(lines[2], ",false") {
		t.Errorf("serial column wrong:\n%s", buf.String())
	}
}

func TestPhaseCyclesPerEdge(t *testing.T) {
	rt := sample()
	// 4ms over 64 edges at 1 GHz = 62500 cycles/edge for Phase-I.
	p1, p2, r := rt.PhaseCyclesPerEdge(1.0)
	if p1 != 62500 {
		t.Errorf("p1 = %v", p1)
	}
	if p2 != 93750 {
		t.Errorf("p2 = %v", p2)
	}
	if r != 7812.5 {
		t.Errorf("rearr = %v", r)
	}
	empty := &RunTrace{}
	empty.Finish()
	if a, b, c := empty.PhaseCyclesPerEdge(1.0); a != 0 || b != 0 || c != 0 {
		t.Error("empty trace produced nonzero cycles")
	}
}
