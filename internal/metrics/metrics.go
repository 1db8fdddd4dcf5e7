// Package metrics accumulates task-completion-time statistics and renders
// the aligned text tables the benchmark harness prints.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Summary accumulates scalar observations (task completion times, queue
// lengths) and reports order statistics. The zero value retains every
// observation; newReservoir builds a bounded-memory variant.
type Summary struct {
	values []float64
	sum    float64
	sorted bool

	// Reservoir mode (newReservoir): capacity bounds values, seen counts all
	// observations, rng drives Algorithm R replacement, and min/max stay
	// exact. capacity == 0 means unbounded (the zero value).
	capacity int
	seen     int
	rng      *rand.Rand
	min, max float64
}

// newReservoir returns a Summary whose memory is bounded at capacity
// observations: once full, each new observation replaces a uniformly random
// slot with probability capacity/seen (Vitter's Algorithm R), leaving a
// uniform sample of everything seen. Count, Mean and Max remain exact;
// percentiles are estimated from the sample. Long-horizon runs use this to
// keep per-task statistics from growing without bound.
func newReservoir(capacity int, seed int64) *Summary {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Summary{capacity: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.seen == 0 || v < s.min {
		s.min = v
	}
	if s.seen == 0 || v > s.max {
		s.max = v
	}
	s.seen++
	s.sum += v
	if s.capacity > 0 && len(s.values) >= s.capacity {
		if j := s.rng.Intn(s.seen); j < s.capacity {
			s.values[j] = v
			s.sorted = false
		}
		return
	}
	s.values = append(s.values, v)
	s.sorted = false
}

// Count returns the number of observations (all of them, even those no
// longer retained in reservoir mode).
func (s *Summary) Count() int { return s.seen }

// Mean returns the arithmetic mean over every observation (0 when empty).
func (s *Summary) Mean() float64 {
	if s.seen == 0 {
		return 0
	}
	return s.sum / float64(s.seen)
}

// Percentile returns the p-th percentile (nearest-rank), p in [0, 100].
func (s *Summary) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.values))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.values) {
		rank = len(s.values)
	}
	return s.values[rank-1]
}

// Max returns the largest observation (0 when empty); exact even in
// reservoir mode.
func (s *Summary) Max() float64 { return s.max }

// Stddev returns the population standard deviation of the retained
// observations (a sample estimate in reservoir mode).
func (s *Summary) Stddev() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	var mean float64
	for _, v := range s.values {
		mean += v
	}
	mean /= float64(n)
	var acc float64
	for _, v := range s.values {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Series is a time-indexed sequence of values (per-slot TCT, queue length).
type Series struct {
	// Values are the per-step observations, in order.
	Values []float64
}

// Append records the next step's value.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Mean returns the series mean (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Window returns the mean over the half-open index range [lo, hi).
func (s *Series) Window(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	if hi <= lo {
		return 0
	}
	var sum float64
	for _, v := range s.Values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// Histogram renders the distribution of a summary's observations as a
// log-friendly text bar chart: fixed-width buckets between the observed
// minimum and maximum.
type Histogram struct {
	// Buckets is the number of bins (default 10 when zero).
	Buckets int
	// BarWidth is the maximum bar length in characters (default 40).
	BarWidth int
}

// Render draws the histogram of the summary's observations.
func (h Histogram) Render(s *Summary) string {
	if s.Count() == 0 {
		return "(no observations)\n"
	}
	buckets := h.Buckets
	if buckets <= 0 {
		buckets = 10
	}
	barWidth := h.BarWidth
	if barWidth <= 0 {
		barWidth = 40
	}
	lo, hi := s.Percentile(0), s.Percentile(100)
	if hi == lo {
		return fmt.Sprintf("%12.4g  all %d observations\n", lo, s.Count())
	}
	counts := make([]int, buckets)
	width := (hi - lo) / float64(buckets)
	for _, v := range s.values {
		idx := int((v - lo) / width)
		if idx >= buckets {
			idx = buckets - 1
		}
		counts[idx]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		bar := strings.Repeat("#", c*barWidth/maxCount)
		fmt.Fprintf(&b, "%12.4g..%-12.4g %6d %s\n", lo+float64(i)*width, lo+float64(i+1)*width, c, bar)
	}
	return b.String()
}

// Table renders aligned experiment output: a header row and data rows, all
// left-aligned in columns. It is deliberately plain text so experiment
// output diffs cleanly.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000 || math.Abs(v) < 0.001:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
