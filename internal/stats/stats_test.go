package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1.0)
	tab.AddRow("longer-name", 123456.0)
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
	// Columns align: the "value" header starts at the same offset in
	// every line.
	col := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][col:], "1.00") {
		t.Errorf("misaligned column:\n%s", s)
	}
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.1234:     "0.123",
		1.5:        "1.50",
		123.45:     "123.5",
		1234567:    "1,234,567",
		math.NaN(): "nan",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.Inf(1)); got != "inf" {
		t.Errorf("FormatFloat(+inf) = %q", got)
	}
}

func TestGroupInt(t *testing.T) {
	cases := map[int64]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		-1234567: "-1,234,567",
	}
	for in, want := range cases {
		if got := GroupInt(in); got != want {
			t.Errorf("GroupInt(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bounds wrong: %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("center wrong: %+v", s)
	}
	if math.Abs(s.StdDev-1.29099) > 1e-4 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary not zero")
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.StdDev != 0 {
		t.Errorf("singleton summary: %+v", one)
	}
}

func TestSummarizeProperty(t *testing.T) {
	f := func(raw []int32) bool {
		xs := make([]float64, len(raw))
		for i, x := range raw {
			xs[i] = float64(x) // bounded magnitudes: the sum cannot overflow
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3)")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio(1,0) should be 0")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512 B",
		8 << 20:   "8.0 MiB",
		256 << 10: "256.0 KiB",
		3 << 30:   "3.0 GiB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		42:            "42",
		61_570_000:    "61.57 M",
		4_096_000_000: "4.10 B",
		50_000:        "50.0 K",
	}
	for in, want := range cases {
		if got := HumanCount(in); got != want {
			t.Errorf("HumanCount(%d) = %q, want %q", in, got, want)
		}
	}
}
