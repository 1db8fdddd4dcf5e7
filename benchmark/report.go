package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"time"
)

// series is one metric across the repeats of a report.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Within holds, per repeat, the metric's spread inside that run (over
	// its set-ups or slices); empty for metrics that are not sampled.
	Within []float64 `json:"within,omitempty"`
}

// add appends one repeat's value and refreshes the summary.
func (s *series) add(v value) {
	s.Unit = v.Unit
	s.Values = append(s.Values, v.Value)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// workloadReport is one workload's part of a report.
type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Correct and Valid hold over every repeat's untraced and traced run.
	Correct bool `json:"correct"`
	Valid   bool `json:"valid"`
	// ScheduleHash fingerprints the untraced run's seeded inputs; the same
	// seed must give the same hash.
	ScheduleHash string             `json:"schedule_hash"`
	Counts       map[string]int     `json:"counts"`
	TCT          tct                `json:"tct"`
	EndToEnd     map[string]*series `json:"end_to_end"`
	PerLayer     map[string]*series `json:"per_layer"`
	Problems     []string           `json:"problems,omitempty"`
}

// report is what a full set prints: every metric by name with its unit.
type report struct {
	Schema string `json:"schema"`
	// Claim is always null: this benchmark is the instrument, not a result.
	Claim   *string `json:"claim"`
	Seed    int64   `json:"seed"`
	Repeats int     `json:"repeats"`
	Host    struct {
		NProc     int    `json:"nproc"`
		GoVersion string `json:"go_version"`
		OSArch    string `json:"os_arch"`
	} `json:"host"`
	ElapsedS  float64           `json:"elapsed_s"`
	Workloads []*workloadReport `json:"workloads"`
}

// child runs one workload once in a fresh process, so that set-up time, CPU
// and peak RSS are that workload's alone, and parses its detail line.
func child(ctx context.Context, name string, seed int64, window time.Duration, isTraced bool, outDir string) (*runDetail, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	flagTrace := "0"
	if isTraced {
		flagTrace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(window.Seconds(), 'f', -1, 64),
		"-trace", flagTrace, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: the child printed nothing", name)
	}
	var d runDetail
	if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
		return nil, fmt.Errorf("%s: reading the child's detail line: %w", name, err)
	}
	// A child that found incorrect outputs exits non-zero but still reports.
	return &d, nil
}

// fullSet runs every selected workload untraced and traced, repeat times,
// prints the report and returns the exit code: non-zero when any output was
// incorrect.
func fullSet(only string, seed int64, seconds, scaleWin float64, repeat int, jsonOut, outDir string) int {
	selected := workloads()
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []*workload{w}
	}
	if repeat < 1 {
		repeat = 1
	}
	start := time.Now()
	rep := &report{Schema: "leime-benchmark/1", Seed: seed, Repeats: repeat}
	rep.Host.NProc, rep.Host.GoVersion = nproc(), goruntime.Version()
	rep.Host.OSArch = goruntime.GOOS + "/" + goruntime.GOARCH
	ctx := context.Background()
	ok := true
	for _, w := range selected {
		window, err := windowOf(w, seconds, scaleWin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		wr := &workloadReport{Name: w.name, Why: w.why, Correct: true, Valid: true,
			EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		rep.Workloads = append(rep.Workloads, wr)
		for r := 0; r < repeat; r++ {
			for _, isTraced := range []bool{false, true} {
				fmt.Fprintf(os.Stderr, "%s: repeat %d/%d, traced=%v, window %v\n", w.name, r+1, repeat, isTraced, window)
				d, err := child(ctx, w.name, seed, window, isTraced, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					wr.Correct = false
					wr.Problems = append(wr.Problems, err.Error())
					continue
				}
				wr.Correct = wr.Correct && d.Correct
				wr.Valid = wr.Valid && d.Valid
				wr.Problems = append(append(wr.Problems, d.Violations...), d.Invalid...)
				into, defs := wr.PerLayer, perLayerDefs
				if !isTraced {
					into, defs = wr.EndToEnd, endToEndDefs
					if r > 0 && d.ScheduleHash != wr.ScheduleHash {
						wr.Correct = false
						wr.Problems = append(wr.Problems, fmt.Sprintf("seed %d gave schedule %s, then %s", seed, wr.ScheduleHash, d.ScheduleHash))
					}
					wr.ScheduleHash, wr.Counts, wr.TCT = d.ScheduleHash, d.Counts, d.TCT
				}
				for _, def := range defs {
					if into[def.Name] == nil {
						into[def.Name] = &series{}
					}
					into[def.Name].add(d.Metrics[def.Name])
					if within, ok := d.Within[def.Name]; ok {
						into[def.Name].Within = append(into[def.Name].Within, within)
					}
				}
			}
		}
		ok = ok && wr.Correct
	}
	rep.ElapsedS = time.Since(start).Seconds()
	if code := printJSON(rep); code != 0 {
		return code
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
