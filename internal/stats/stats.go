// Package stats provides small numeric helpers and fixed-width table
// rendering for the benchmark harness's paper-style reports.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: 3 significant decimals for
// small magnitudes, thousands-grouped integers for large ones.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case math.IsInf(v, 0):
		return "inf"
	case v == math.Trunc(v) && math.Abs(v) >= 1000:
		return GroupInt(int64(v))
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// GroupInt renders an integer with thousands separators.
func GroupInt(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Summary describes a sample of float64 observations.
type Summary struct {
	N              int
	Min, Max, Mean float64
	Median, StdDev float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.Median = sorted[s.N/2]
	if s.N%2 == 0 {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(sq / float64(s.N-1))
	}
	return s
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// HumanBytes renders a byte count in binary units.
func HumanBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// HumanCount renders a count with M/K suffixes the way the paper's
// tables do (e.g. "61.57 M").
func HumanCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2f B", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2f M", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1f K", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
