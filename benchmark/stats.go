package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in [0, 100]) of
// values already sorted ascending; 0 for an empty slice. Nearest-rank is the
// definition internal/metrics uses, so benchmark percentiles and
// DeviceStats percentiles are the same statistic.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// sortedCopy returns the values sorted ascending without touching the input.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver uses for the run-to-run spread. Fewer than two values
// have no spread: both quartiles are the value itself.
func quartiles(values []float64) (q1, q3 float64) {
	m := len(values)
	if m == 0 {
		return 0, 0
	}
	s := sortedCopy(values)
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure a metric's bound is held against; 0 when the median is 0.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// tct summarises completion times in milliseconds.
type tct struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean_ms"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
}
