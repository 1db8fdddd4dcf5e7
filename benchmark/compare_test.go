package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lowerDef := metricDef{Name: "tct_mean_ms", Unit: "ms", Better: lower, Bound: 0.10}
	higherDef := metricDef{Name: "goodput_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		name          string
		def           metricDef
		before, after []float64
		within        float64
		want          verdict
	}{
		{"single runs within the bound", lowerDef, []float64{100}, []float64{105}, 0, verdictOK},
		{"single runs beyond the bound", lowerDef, []float64{100}, []float64{115}, 0, verdictRegressed},
		{"single runs better beyond the bound", lowerDef, []float64{100}, []float64{80}, 0, verdictImproved},
		{"higher is better: a drop regresses", higherDef, []float64{1000}, []float64{850}, 0, verdictRegressed},
		{"higher is better: a rise improves", higherDef, []float64{1000}, []float64{1200}, 0, verdictImproved},
		{"tight repeats, small change", lowerDef, []float64{99, 100, 101}, []float64{103, 104, 105}, 0, verdictOK},
		{"tight repeats, large change", lowerDef, []float64{99, 100, 101}, []float64{119, 120, 121}, 0, verdictRegressed},
		{"wide spread hides the change", lowerDef, []float64{80, 100, 130}, []float64{90, 112, 140}, 0, verdictUnresolved},
		{"wide spread, every run worse", lowerDef, []float64{80, 100, 130}, []float64{140, 170, 210}, 0, verdictRegressed},
		{"wide spread, every run better", lowerDef, []float64{140, 170, 210}, []float64{80, 100, 130}, 0, verdictImproved},
		{"single runs, noisy inside: worse but unresolved", lowerDef, []float64{100}, []float64{115}, 0.30, verdictUnresolved},
		{"single runs, noisy inside: even far worse stays unresolved", lowerDef, []float64{100}, []float64{150}, 0.30, verdictUnresolved},
	} {
		if got := judge(c.def, c.before, c.after, c.within); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f, spread %.3f), want %s", c.name, got.verdict, got.worse, got.spread, c.want)
		}
	}
}

func TestCompareReportsRows(t *testing.T) {
	mk := func(v float64) *report {
		s := &series{}
		s.add(value{Value: v, Unit: "ms"})
		return &report{Workloads: []*workloadReport{{Name: "edge-steady", EndToEnd: map[string]*series{"tct_mean_ms": s}}}}
	}
	defs := []metricDef{{Name: "tct_mean_ms", Unit: "ms", Better: lower, Bound: 0.10}, {Name: "absent", Better: lower, Bound: 0.1}}
	rows := compareReports(mk(40), mk(50), defs)
	if len(rows) != 1 || rows[0].workload != "edge-steady" || rows[0].verdict != verdictRegressed {
		t.Fatalf("rows = %+v, want one regressed edge-steady row", rows)
	}
	// A workload the old report lacks cannot be judged.
	rows = compareReports(&report{}, mk(50), defs)
	if len(rows) != 1 || rows[0].verdict != verdictUnresolved {
		t.Fatalf("rows = %+v, want one unresolved row", rows)
	}
}
