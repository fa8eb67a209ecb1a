// Package trace collects per-step and per-run metrics from instrumented
// traversals: frontier sizes, traversed edges, bin occupancy, phase wall
// times, the socket-access fractions (α) consumed by the analytical
// model, and byte counts per the paper's Appendix-A accounting.
package trace

import (
	"fmt"
	"time"

	"fastbfs/internal/numa"
)

// StepMetrics records one BFS step (one frontier expansion).
type StepMetrics struct {
	Step        int
	Frontier    int64 // |BV^C| entries processed this step
	Edges       int64 // adjacency entries examined
	NewVertices int64 // vertices assigned a depth this step
	PBVEntries  int64 // bin entries written in Phase-I (incl. markers)
	SharedBins  int   // bins split across sockets by the division
	DupAppends  int64 // duplicate next-frontier appends (benign races)
	BottomUp    bool  // level expanded bottom-up (direction-optimizing)
	Serial      bool  // level expanded by the engine's small-frontier serial fast path

	Phase1, Phase2, Rearr time.Duration

	// Per-step access skews (the paper's α is per step: "a property of
	// the boundary states for a given step"). Zero when accounting is
	// off.
	AlphaAdj, AlphaPBV, AlphaDP float64

	// MaxSocketShare is the largest fraction of this step's Phase-II
	// entries assigned to one socket: 1/N_S when perfectly balanced
	// (the load-balanced scheme by construction), up to 1.0 when the
	// static scheme leaves all work on one socket (the paper's stress
	// case). Zero for single-phase runs or when accounting is off.
	MaxSocketShare float64
}

// RunTrace aggregates a whole traversal.
type RunTrace struct {
	Steps   []StepMetrics
	Traffic *numa.Traffic // nil when socket accounting is off

	// Totals, filled by Finish.
	TotalEdges    int64
	TotalVertices int64
	TotalPBV      int64
	TotalDup      int64
	MaxFrontier   int64
	SerialSteps   int // steps run by the small-frontier serial fast path
	TimePhase1    time.Duration
	TimePhase2    time.Duration
	TimeRearr     time.Duration
}

// Add appends one step's metrics.
func (rt *RunTrace) Add(m StepMetrics) { rt.Steps = append(rt.Steps, m) }

// Finish computes the aggregate fields from the recorded steps.
func (rt *RunTrace) Finish() {
	rt.TotalEdges, rt.TotalVertices, rt.TotalPBV, rt.TotalDup, rt.MaxFrontier = 0, 0, 0, 0, 0
	rt.SerialSteps = 0
	rt.TimePhase1, rt.TimePhase2, rt.TimeRearr = 0, 0, 0
	for _, s := range rt.Steps {
		rt.TotalEdges += s.Edges
		rt.TotalVertices += s.NewVertices
		rt.TotalPBV += s.PBVEntries
		rt.TotalDup += s.DupAppends
		if s.Frontier > rt.MaxFrontier {
			rt.MaxFrontier = s.Frontier
		}
		if s.Serial {
			rt.SerialSteps++
		}
		rt.TimePhase1 += s.Phase1
		rt.TimePhase2 += s.Phase2
		rt.TimeRearr += s.Rearr
	}
}

// Depth returns the number of steps (the paper's D).
func (rt *RunTrace) Depth() int { return len(rt.Steps) }

// AvgTraversedDegree returns ρ' = |E'| / |V'|.
func (rt *RunTrace) AvgTraversedDegree() float64 {
	if rt.TotalVertices == 0 {
		return 0
	}
	return float64(rt.TotalEdges) / float64(rt.TotalVertices)
}

// Alpha returns the measured run-aggregate α for structure st, or
// 1/sockets if no traffic was recorded. Prefer WeightedAlpha for model
// inputs: aggregating over the run averages away per-step skew (a
// bipartite stress graph alternates which socket is hot, so the
// aggregate is balanced even though every individual step is maximally
// skewed).
func (rt *RunTrace) Alpha(st numa.Structure, sockets int) float64 {
	if rt.Traffic == nil {
		return 1 / float64(sockets)
	}
	return rt.Traffic.Alpha(st)
}

// WeightedAlpha returns the edge-weighted mean of the per-step α values
// for structure st — the skew the paper's per-step model sees. Falls
// back to the run aggregate when steps carry no per-step skews.
func (rt *RunTrace) WeightedAlpha(st numa.Structure, sockets int) float64 {
	var num, den float64
	for _, s := range rt.Steps {
		var a float64
		switch st {
		case numa.StructAdj:
			a = s.AlphaAdj
		case numa.StructPBV:
			a = s.AlphaPBV
		case numa.StructDP:
			a = s.AlphaDP
		}
		if a <= 0 || s.Edges == 0 {
			continue
		}
		num += a * float64(s.Edges)
		den += float64(s.Edges)
	}
	if den == 0 {
		return rt.Alpha(st, sockets)
	}
	return num / den
}

// String renders a compact per-run summary.
func (rt *RunTrace) String() string {
	return fmt.Sprintf("steps=%d V'=%d E'=%d rho'=%.2f maxFrontier=%d dup=%d t1=%v t2=%v tR=%v",
		rt.Depth(), rt.TotalVertices, rt.TotalEdges, rt.AvgTraversedDegree(),
		rt.MaxFrontier, rt.TotalDup, rt.TimePhase1, rt.TimePhase2, rt.TimeRearr)
}

// PhaseCyclesPerEdge converts the measured phase times to cycles per
// traversed edge at the given core frequency (GHz), the unit of the
// paper's Figure 8.
func (rt *RunTrace) PhaseCyclesPerEdge(freqGHz float64) (p1, p2, rearr float64) {
	if rt.TotalEdges == 0 {
		return 0, 0, 0
	}
	f := freqGHz / float64(rt.TotalEdges) // cycles per ns per edge
	p1 = float64(rt.TimePhase1.Nanoseconds()) * f
	p2 = float64(rt.TimePhase2.Nanoseconds()) * f
	rearr = float64(rt.TimeRearr.Nanoseconds()) * f
	return
}
