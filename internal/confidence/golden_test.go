package confidence

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"leime/internal/dataset"
	"leime/internal/model"
)

// calibrationGoldenPath pins Calibrate, Evaluate and Report to the last bit:
// thresholds and sigma for every architecture over two seeds, two dataset
// sizes and two loss budgets, plus one Evaluate and one Report row per
// architecture at its calibrated thresholds.
const calibrationGoldenPath = "testdata/calibration_golden.txt"

// floats renders a vector with every bit of each entry.
func floats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.17g", x)
	}
	return strings.Join(parts, ",")
}

// calibrationGoldenRows builds every golden row in file order. The model
// and the dataset share the seed, as in the experiments' standard workload.
func calibrationGoldenRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	for _, p := range model.All() {
		for _, seed := range []int64{1, 42} {
			for _, n := range []int{1000, 1200} {
				ds, err := dataset.Generate(dataset.CIFAR10Like, n, seed)
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				m, err := New(p, DefaultParams(p.Name), seed)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				for _, budget := range []float64{DefaultLossBudget(p.Name), 0.02} {
					th, sigma := m.Calibrate(ds, budget)
					rows = append(rows, fmt.Sprintf("calibrate %s seed=%d n=%d budget=%g\tthresholds=%s sigma=%s",
						p.Name, seed, n, budget, floats(th), floats(sigma)))
				}
			}
		}
		ds, err := dataset.Generate(dataset.CIFAR10Like, 1200, 42)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		m, th, _, err := Calibrated(p, ds, 42)
		if err != nil {
			t.Fatalf("Calibrated: %v", err)
		}
		e1, e2 := 2, p.NumExits()-1
		ev, err := m.Evaluate(ds, e1, e2, th)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		rows = append(rows, fmt.Sprintf("evaluate %s exits=%d,%d\texit_frac=%s accuracy=%.17g baseline=%.17g",
			p.Name, e1, e2, floats(ev.ExitFrac[:]), ev.Accuracy, ev.BaselineAccuracy))
		var cum, marginal, acc []float64
		for _, r := range m.Report(ds, th) {
			cum = append(cum, r.CumulativeRate)
			marginal = append(marginal, r.MarginalRate)
			acc = append(acc, r.ConditionalAccuracy)
		}
		rows = append(rows, fmt.Sprintf("report %s\tcumulative=%s marginal=%s conditional_accuracy=%s",
			p.Name, floats(cum), floats(marginal), floats(acc)))
	}
	return rows
}

// readCalibrationGolden parses the golden file: "name<TAB>fields" lines,
// '#' comments, kept in order.
func readCalibrationGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(calibrationGoldenPath)
	if err != nil {
		t.Fatalf("open golden: %v", err)
	}
	defer f.Close()
	var rows []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "\t") {
			t.Fatalf("malformed golden line %q", line)
		}
		rows = append(rows, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return rows
}

// TestCalibrateGolden requires every row to reproduce its golden line byte
// for byte, in order, and the file to hold no row the test does not build.
func TestCalibrateGolden(t *testing.T) {
	golden := readCalibrationGolden(t)
	got := calibrationGoldenRows(t)
	if len(golden) != len(got) {
		t.Errorf("golden file has %d rows, the test builds %d", len(golden), len(got))
	}
	for i, row := range got {
		if i >= len(golden) {
			t.Errorf("no golden row for\n%s", row)
			continue
		}
		if row != golden[i] {
			t.Errorf("row %d changed\n got %s\nwant %s", i+1, row, golden[i])
		}
	}
}
