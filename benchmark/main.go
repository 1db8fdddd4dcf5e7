// Command benchmark is LEIME's one benchmark: six named workloads driven
// against the live in-process TCP runtime, task completion time end to end,
// and every layer timed from outside. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                      # all workloads, untraced + traced, one JSON report
//	bash benchmark/run.sh -workload edge-steady
//	bash benchmark/run.sh -repeat 3 -json new.json
//	bash benchmark/run.sh -compare old.json new.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, the driver's form
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// hardCap bounds one run of one workload, set-up and probes included; the
// driver allows 180 s.
const hardCap = 170 * time.Second

// driverResult is the last line a single run prints: exactly these keys.
type driverResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all six)")
		seed     = flag.Int64("seed", 7, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds for every workload (default: each workload's own)")
		trace    = flag.Int("trace", -1, "with -workload: 0 = one untraced run printing the end-to-end metrics, 1 = one traced run printing the per-layer metrics")
		scaleWin = flag.Float64("scale-windows", 1, "multiply every workload's own window by this factor")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and report medians and quartiles")
		compare  = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
		jsonOut  = flag.String("json", "", "also write the report to this file")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files")
		bounds   = flag.String("bounds", "BENCHMARK.json", "file the regression bounds are read from")
		describe = flag.Bool("describe", false, "print the BENCHMARK.json this build implements and exit")
	)
	flag.Parse()
	switch {
	case *describe:
		return printJSON(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), *bounds)
	case *name != "" && *trace >= 0:
		return single(*name, *seed, *seconds, *scaleWin, *trace == 1, *outDir)
	}
	return fullSet(*name, *seed, *seconds, *scaleWin, *repeat, *jsonOut, *outDir)
}

// windowOf resolves a workload's measured window: -seconds wins, otherwise
// the workload's own window times -scale-windows.
func windowOf(w *workload, seconds, scaleWin float64) (time.Duration, error) {
	if seconds > 0 {
		return time.Duration(seconds * float64(time.Second)), nil
	}
	if scaleWin <= 0 {
		return 0, fmt.Errorf("-scale-windows %v must be positive", scaleWin)
	}
	window := time.Duration(float64(w.window) * scaleWin)
	// The tail is only reported from 1 000 samples up; a factor that would
	// take an open-loop workload below that is refused, not silently obeyed.
	if rate := w.offeredPerSec(); rate > 0 && rate*window.Seconds() < 1000 {
		return 0, fmt.Errorf("-scale-windows %v leaves %s about %.0f samples, below the 1000 its p99 needs", scaleWin, w.name, rate*window.Seconds())
	}
	return window, nil
}

// single runs one workload once in this process and prints its detail line
// followed by the driver's result line.
func single(name string, seed int64, seconds, scaleWin float64, isTraced bool, outDir string) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	window, err := windowOf(w, seconds, scaleWin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardCap)
	defer cancel()
	var d *runDetail
	if isTraced {
		d, err = runTraced(ctx, w, seed, window, outDir)
	} else {
		d, err = runUntraced(ctx, w, seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	for _, v := range d.Violations {
		fmt.Fprintf(os.Stderr, "%s: incorrect: %s\n", name, v)
	}
	for _, v := range d.Invalid {
		fmt.Fprintf(os.Stderr, "%s: invalid: %s\n", name, v)
	}
	if code := printLine(d); code != 0 {
		return code
	}
	// Refusals and sheds are edge-overload's designed answer to 2x load and
	// are priced by ok_share and goodput_per_s; failed counts only tasks
	// that ended in a way no workload allows.
	if code := printLine(driverResult{Correct: d.Correct, Attempted: d.Counts["generated"], Failed: d.Counts["errored"], Metrics: d.Metrics}); code != 0 {
		return code
	}
	if !d.Correct {
		return 1
	}
	return 0
}

// printLine writes v as one line of JSON on standard output.
func printLine(v any) int {
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// printJSON writes v as indented JSON on standard output.
func printJSON(v any) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// benchmarkManifest is the content of BENCHMARK.json.
type benchmarkManifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the window the driver measures every workload for.
const runSeconds = 10

// manifest describes this build the way BENCHMARK.json must.
func manifest() benchmarkManifest {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs, // their zero bounds are left out of the JSON
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	return m
}
