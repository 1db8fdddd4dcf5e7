package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Count() != 0 || s.Max() != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.Count() != 3 {
		t.Errorf("Count() = %d", s.Count())
	}
	if s.Mean() != 2 {
		t.Errorf("Mean() = %v, want 2", s.Mean())
	}
	if s.Max() != 3 {
		t.Errorf("Max() = %v, want 3", s.Max())
	}
	if got := s.Percentile(50); got != 2 {
		t.Errorf("P50 = %v, want 2", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	var s Summary
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 after late Add = %v, want 1", got)
	}
}

func TestSummaryStddev(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Stddev() = %v, want 2", got)
	}
}

func TestSummaryPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		p := s.Percentile(float64(pRaw) / 255 * 100)
		return p >= lo && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Error("empty series mean should be 0")
	}
	for i := 1; i <= 10; i++ {
		s.Append(float64(i))
	}
	if got := s.Mean(); got != 5.5 {
		t.Errorf("Mean() = %v, want 5.5", got)
	}
	if got := s.Window(0, 5); got != 3 {
		t.Errorf("Window(0,5) = %v, want 3", got)
	}
	if got := s.Window(8, 100); got != 9.5 {
		t.Errorf("Window(8,100) = %v, want 9.5", got)
	}
	if got := s.Window(5, 5); got != 0 {
		t.Errorf("Window(5,5) = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "tct_ms", "speedup")
	tb.AddRow("LEIME", 12.5, "1.0x")
	tb.AddRow("DDNN", 234.25, "18.7x")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scheme") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "LEIME") || !strings.Contains(lines[2], "12.5") {
		t.Errorf("row content wrong: %q", lines[2])
	}
	// Columns align: 'tct_ms' column starts at the same offset in all rows.
	idx := strings.Index(lines[0], "tct_ms")
	if !strings.HasPrefix(lines[2][idx:], "12.5") {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(0.0)
	tb.AddRow(1234567.0)
	tb.AddRow(0.0000001)
	tb.AddRow(3.14159)
	out := tb.String()
	for _, want := range []string{"0\n", "1.235e+06", "1.000e-07", "3.1416"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramRendering(t *testing.T) {
	var s Summary
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 10))
	}
	out := Histogram{Buckets: 5, BarWidth: 20}.Render(&s)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 bucket lines, got %d:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, "#") {
			t.Errorf("bucket with no bar: %q", l)
		}
		if !strings.Contains(l, "20 ") {
			t.Errorf("uniform distribution should have 20 per bucket: %q", l)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var empty Summary
	if out := (Histogram{}).Render(&empty); !strings.Contains(out, "no observations") {
		t.Errorf("empty summary render: %q", out)
	}
	var constant Summary
	for i := 0; i < 5; i++ {
		constant.Add(3.14)
	}
	if out := (Histogram{}).Render(&constant); !strings.Contains(out, "all 5") {
		t.Errorf("constant summary render: %q", out)
	}
}
