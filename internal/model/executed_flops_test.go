package model

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// executedFLOPsPath holds one row per chain element of every built-in
// architecture: the FLOPs counted when that element's graph was executed op
// by op on a 32x32x3 input.
const executedFLOPsPath = "testdata/executed_flops.txt"

type executedRow struct {
	arch  string
	index int
	name  string
	flops float64
}

func loadExecutedFLOPs(t *testing.T) []executedRow {
	t.Helper()
	f, err := os.Open(executedFLOPsPath)
	if err != nil {
		t.Fatalf("open golden: %v", err)
	}
	defer f.Close()
	var rows []executedRow
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 4 {
			t.Fatalf("%s:%d: want 4 tab-separated fields, got %d", executedFLOPsPath, line, len(fields))
		}
		index, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("%s:%d: index: %v", executedFLOPsPath, line, err)
		}
		flops, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			t.Fatalf("%s:%d: flops: %v", executedFLOPsPath, line, err)
		}
		rows = append(rows, executedRow{arch: fields[0], index: index, name: fields[2], flops: flops})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return rows
}

// TestElementFLOPsMatchExecuted pins every analytic Element.FLOPs, exactly,
// to the operation count an executing engine recorded for that element's
// graph, and requires the table to cover every element of every
// architecture, so neither side can drift or be dropped silently.
func TestElementFLOPsMatchExecuted(t *testing.T) {
	golden := make(map[string]map[int]executedRow)
	for _, r := range loadExecutedFLOPs(t) {
		if golden[r.arch] == nil {
			golden[r.arch] = make(map[int]executedRow)
		}
		if _, dup := golden[r.arch][r.index]; dup {
			t.Fatalf("duplicate golden row %s/%d", r.arch, r.index)
		}
		golden[r.arch][r.index] = r
	}
	for _, p := range All() {
		rows := golden[p.Name]
		delete(golden, p.Name)
		t.Run(p.Name, func(t *testing.T) {
			if len(rows) != len(p.Elements) {
				t.Errorf("%d golden rows, %d elements", len(rows), len(p.Elements))
			}
			for i, e := range p.Elements {
				r, ok := rows[i+1]
				if !ok {
					t.Errorf("element %d (%s): no golden row", i+1, e.Name)
					continue
				}
				if r.name != e.Name {
					t.Errorf("element %d: golden name %q, profile %q", i+1, r.name, e.Name)
				}
				if e.FLOPs != r.flops {
					t.Errorf("element %d (%s): analytic FLOPs %v, executed %v", i+1, e.Name, e.FLOPs, r.flops)
				}
			}
		})
	}
	for arch := range golden {
		t.Errorf("golden rows for unknown architecture %q", arch)
	}
}
