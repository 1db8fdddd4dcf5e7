package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// verdict is the outcome of comparing one (workload, end-to-end metric)
// pair between two reports.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one line of the comparison.
type compareRow struct {
	workload, metric, unit string
	oldMedian, newMedian   float64
	// worse is the change as a share of the old median, positive when the
	// new report is worse in the metric's direction.
	worse float64
	// spread is the larger interquartile distance of the two sides as a
	// share of its median: across repeats, or inside the runs (over their
	// set-ups or slices) when that is wider or there was one run a side.
	spread  float64
	bound   float64
	verdict verdict
}

// judge decides one pair. A change within the bound is ok; beyond it, it is
// a regression or an improvement. Where the run-to-run spread is wider than
// the bound the medians cannot resolve a change of that size: the pair is
// unresolved unless every run of one report reads better than every run of
// the other, which takes at least three runs a side to mean anything.
func judge(def metricDef, before, after []float64, within float64) compareRow {
	row := compareRow{metric: def.Name, unit: def.Unit, bound: def.Bound,
		oldMedian: median(before), newMedian: median(after)}
	sign := 1.0 // lower is better: growing is worse
	if def.Better == higher {
		sign = -1
	}
	if row.oldMedian != 0 {
		row.worse = sign * (row.newMedian - row.oldMedian) / math.Abs(row.oldMedian)
	}
	row.spread = math.Max(within, math.Max(spread(before), spread(after)))
	switch {
	case row.spread > def.Bound:
		oldLo, oldHi := minMax(before)
		newLo, newHi := minMax(after)
		repeated := len(before) >= 3 && len(after) >= 3
		allWorse := repeated && sign*(newLo-oldHi) > 0 && sign*(newHi-oldLo) > 0
		allBetter := repeated && sign*(oldLo-newHi) > 0 && sign*(oldHi-newLo) > 0
		switch {
		case allWorse && row.worse > def.Bound:
			row.verdict = verdictRegressed
		case allBetter:
			row.verdict = verdictImproved
		default:
			row.verdict = verdictUnresolved
		}
	case row.worse > def.Bound:
		row.verdict = verdictRegressed
	case row.worse < -def.Bound:
		row.verdict = verdictImproved
	default:
		row.verdict = verdictOK
	}
	return row
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// compareReports produces one row per (workload, end-to-end metric) present
// in the new report; a workload or metric the old report lacks is unresolved.
func compareReports(before, after *report, defs []metricDef) []compareRow {
	old := map[string]*workloadReport{}
	for _, w := range before.Workloads {
		old[w.Name] = w
	}
	var rows []compareRow
	for _, w := range after.Workloads {
		for _, def := range defs {
			got := w.EndToEnd[def.Name]
			if got == nil {
				continue
			}
			var was *series
			if ow := old[w.Name]; ow != nil {
				was = ow.EndToEnd[def.Name]
			}
			var row compareRow
			if was == nil || len(was.Values) == 0 {
				row = compareRow{metric: def.Name, unit: def.Unit, bound: def.Bound, newMedian: got.Median, verdict: verdictUnresolved}
			} else {
				row = judge(def, was.Values, got.Values, math.Max(median(was.Within), median(got.Within)))
			}
			row.workload = w.Name
			rows = append(rows, row)
		}
	}
	return rows
}

// readReport loads a report file.
func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the comparison of two report files and returns
// non-zero when any pair regressed. ok_share carries the fail-share rule: a
// larger share of failed tasks is a regression at ok_share's bound.
func compareFiles(oldPath, newPath, boundsPath string) int {
	defs := endToEndDefs
	if data, err := os.ReadFile(boundsPath); err == nil {
		var m benchmarkManifest
		if err := json.Unmarshal(data, &m); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", boundsPath, err)
			return 2
		}
		defs = m.EndToEnd
	} else {
		fmt.Fprintf(os.Stderr, "%s not readable (%v): using the built-in bounds\n", boundsPath, err)
	}
	before, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	after, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rows := compareReports(before, after, defs)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tworse by\tspread\tbound\tverdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.oldMedian, r.newMedian, r.unit, r.worse*100, r.spread*100, r.bound*100, r.verdict)
		if r.verdict == verdictRegressed {
			regressed++
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if regressed > 0 {
		fmt.Printf("%d of %d pairs regressed\n", regressed, len(rows))
		return 1
	}
	return 0
}
