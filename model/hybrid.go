package model

import (
	"fmt"

	"fastbfs/internal/core"
)

// Direction-optimizing extension of the analytical model. A hybrid
// traversal splits its levels into top-down ones (Eqns IV.1a–IV.1d
// apply unchanged) and bottom-up ones, whose per-edge transfer volume
// follows the same Appendix-A accounting style below. The model also
// replays the engine's α/β switch rule over a per-level profile, so the
// switch level is predictable from a single instrumented top-down run.

// BUWorkload aggregates the bottom-up levels of one hybrid traversal.
type BUWorkload struct {
	Vertices int64 // |V|
	Scanned  int64 // unvisited vertices examined across bottom-up levels
	Edges    int64 // in-adjacency entries examined (early-exit bounded)
	Claimed  int64 // vertices claimed (new vertices of those levels)
	Levels   int   // number of bottom-up levels
}

// RhoBU returns the edges examined per claimed vertex — the bottom-up
// analogue of ρ'. Early exit keeps it far below the average in-degree
// on scale-free graphs (most vertices find a parent within a few
// probes), which is exactly the hybrid win.
func (b BUWorkload) RhoBU() float64 {
	if b.Claimed == 0 {
		return 0
	}
	return float64(b.Edges) / float64(b.Claimed)
}

// SigmaBU returns the edges examined per scanned vertex, which prices
// the sequential per-vertex costs (DP test, offset reads).
func (b BUWorkload) SigmaBU() float64 {
	if b.Scanned == 0 {
		return 0
	}
	return float64(b.Edges) / float64(b.Scanned)
}

func (b BUWorkload) validate() error {
	if b.Vertices <= 0 || b.Edges <= 0 || b.Scanned <= 0 || b.Claimed <= 0 {
		return fmt.Errorf("model: bottom-up workload needs positive V, scanned, edges, claimed")
	}
	if b.Levels <= 0 {
		return fmt.Errorf("model: bottom-up workload needs positive level count")
	}
	return nil
}

// BUTransfers is the per-examined-edge DDR/LLC byte volume of a
// bottom-up level, Appendix-A style. With σ = edges per scanned vertex
// and ρ_bu = edges per claimed vertex:
type BUTransfers struct {
	// DDR terms.
	DPScan   float64 // 8/σ: sequential unvisited test over the DP array
	InAdj    float64 // 16/σ + 4: offset pair per scanned vertex + entries
	FrontDDR float64 // (|V|/8)·levels/|E_bu|: frontier-bitmap refill per level
	DPWrite  float64 // 2L/ρ_bu: claim write (read-for-ownership + write-back)
	Append   float64 // 8/ρ_bu: next-frontier array append (write + RFO)

	// LLC term: the random frontier-bitmap probe per examined edge is
	// served from cache once resident (the refill above pays the DDR
	// cost), exactly like the top-down VIS probe in Eqn IV.1c.
	FrontLLC float64 // L
}

// DDR returns the bottom-up DDR bytes per examined edge.
func (t BUTransfers) DDR() float64 {
	return t.DPScan + t.InAdj + t.FrontDDR + t.DPWrite + t.Append
}

// BottomUpDataTransfers evaluates the bottom-up transfer volumes for
// the aggregated bottom-up levels.
func BottomUpDataTransfers(p Platform, b BUWorkload) BUTransfers {
	sigma := b.SigmaBU()
	rho := b.RhoBU()
	l := float64(p.CacheLine)
	return BUTransfers{
		DPScan:   8 / sigma,
		InAdj:    16/sigma + 4,
		FrontDDR: float64(b.Vertices) / 8 * float64(b.Levels) / float64(b.Edges),
		DPWrite:  2 * l / rho,
		Append:   8 / rho,
		FrontLLC: l,
	}
}

// HybridPrediction is the model output for a hybrid traversal: the
// top-down levels' prediction, the bottom-up cycles-per-edge term, and
// the edge-weighted blend.
type HybridPrediction struct {
	TopDown       Prediction
	BU            BUTransfers
	BUCyclesEdge  float64 // cycles per bottom-up examined edge
	CyclesPerEdge float64 // edge-weighted blend over both level kinds
	BytesPerEdge  float64 // blended DDR bytes per examined edge
	EdgesPerSec   float64
	MTEPS         float64
}

// String renders the hybrid prediction in one line.
func (hp HybridPrediction) String() string {
	return fmt.Sprintf("hybrid: %.2f cyc/edge (TD %.2f, BU %.2f), %.1f B/edge = %.0f MTEPS",
		hp.CyclesPerEdge, hp.TopDown.CyclesPerEdge, hp.BUCyclesEdge,
		hp.BytesPerEdge, hp.MTEPS)
}

// PredictHybrid evaluates the blended model: w describes the TOP-DOWN
// levels only (its Edges field is the top-down examined-edge count) and
// b the bottom-up levels. Bottom-up DP/frontier writes are all local by
// construction — the kernel's word-aligned ownership — so the bottom-up
// DDR terms are priced at the balanced effective bandwidth; only the
// in-adjacency reads inherit the workload's adjacency skew.
func PredictHybrid(p Platform, w Workload, b BUWorkload, sockets int) (HybridPrediction, error) {
	td, err := Predict(p, w, sockets)
	if err != nil {
		return HybridPrediction{}, err
	}
	if err := b.validate(); err != nil {
		return HybridPrediction{}, err
	}
	t := BottomUpDataTransfers(p, b)
	ns := float64(sockets)
	alpha := func(a float64) float64 {
		if a <= 0 {
			return 1 / ns
		}
		return a
	}
	bAdj := EffectiveBandwidth(p, alpha(w.AlphaAdj), sockets)
	bBal := EffectiveBandwidth(p, 1/ns, sockets)
	f := p.FreqGHz
	ddr := f * ((t.InAdj+t.DPScan)/bAdj + (t.FrontDDR+t.DPWrite+t.Append)/bBal)
	// Frontier-bitmap probes stream through the LLC→L2 interface of all
	// sockets, like the Eqn IV.4 read term.
	llc := f * t.FrontLLC / (ns * p.BLLCToL2)
	hp := HybridPrediction{
		TopDown:      td,
		BU:           t,
		BUCyclesEdge: ddr + llc,
	}
	tdE, buE := float64(w.Edges), float64(b.Edges)
	hp.CyclesPerEdge = (tdE*td.CyclesPerEdge + buE*hp.BUCyclesEdge) / (tdE + buE)
	hp.BytesPerEdge = (tdE*(td.Transfers.Phase1DDR()+td.Transfers.Phase2DDR()+td.Transfers.Rearrange) +
		buE*t.DDR()) / (tdE + buE)
	if hp.CyclesPerEdge > 0 {
		hp.EdgesPerSec = p.FreqGHz * 1e9 / hp.CyclesPerEdge
		hp.MTEPS = hp.EdgesPerSec / 1e6
	}
	return hp, nil
}

// PredictDirections replays the engine's α/β direction rule
// (core.NextDirection) over a pure TOP-DOWN per-level profile —
// frontier[l] vertices entering level l and edges[l] adjacency entries
// examined there (both direction-independent: the level sets are the same
// however a level is expanded, and edges[l+1] equals the out-degree sum
// m_f of the frontier level l produces). The returned slice marks each
// level the hybrid engine would run bottom-up. alpha/beta <= 0 select the
// engine defaults. totalEdges is |E|.
func PredictDirections(vertices, totalEdges int64, frontier, edges []int64, alpha, beta float64) []bool {
	if alpha <= 0 {
		alpha = core.DefaultAlpha
	}
	if beta <= 0 {
		beta = core.DefaultBeta
	}
	mu := totalEdges
	dir := core.DirTopDown
	dirs := make([]bool, len(frontier))
	for l := range frontier {
		dirs[l] = dir == core.DirBottomUp
		var next, scout int64
		if l+1 < len(frontier) {
			next = frontier[l+1]
			scout = edges[l+1]
		}
		dir, mu = core.NextDirection(core.Level{
			Dir: dir, Mu: mu, Examined: edges[l],
			Awake: frontier[l], Next: next, Scout: scout,
		}, vertices, alpha, beta)
	}
	return dirs
}

// PredictedSwitchLevel returns the 1-based first bottom-up level of a
// PredictDirections result, or 0 when the traversal stays top-down.
func PredictedSwitchLevel(dirs []bool) int {
	for i, bu := range dirs {
		if bu {
			return i + 1
		}
	}
	return 0
}
