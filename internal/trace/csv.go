package trace

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV exports the per-step metrics as CSV for external plotting —
// the frontier-shape and phase-time series behind the paper's figures.
func (rt *RunTrace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"step", "direction", "frontier", "edges", "new_vertices", "pbv_entries",
		"shared_bins", "phase1_ns", "phase2_ns", "rearrange_ns",
		"alpha_adj", "alpha_pbv", "alpha_dp", "max_socket_share", "serial",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range rt.Steps {
		dir := "T"
		if s.BottomUp {
			dir = "B"
		}
		rec := []string{
			fmt.Sprint(s.Step),
			dir,
			fmt.Sprint(s.Frontier),
			fmt.Sprint(s.Edges),
			fmt.Sprint(s.NewVertices),
			fmt.Sprint(s.PBVEntries),
			fmt.Sprint(s.SharedBins),
			fmt.Sprint(s.Phase1.Nanoseconds()),
			fmt.Sprint(s.Phase2.Nanoseconds()),
			fmt.Sprint(s.Rearr.Nanoseconds()),
			fmt.Sprintf("%.4f", s.AlphaAdj),
			fmt.Sprintf("%.4f", s.AlphaPBV),
			fmt.Sprintf("%.4f", s.AlphaDP),
			fmt.Sprintf("%.4f", s.MaxSocketShare),
			fmt.Sprint(s.Serial),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
