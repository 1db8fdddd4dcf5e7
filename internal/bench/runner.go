package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leime/internal/cluster"
	"leime/internal/exitsetting"
	"leime/internal/model"
)

// workers is the shared worker-pool width (0 means runtime.NumCPU()); RunAll
// and the heavy experiments' inner sweeps read it through poolWidth.
var workers atomic.Int64

// SetParallelism sets the worker-pool width used by RunAll and by the
// experiments' inner sweeps. n < 1 resets the default, runtime.NumCPU().
// It is a process-wide knob: concurrent runners share it.
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	workers.Store(int64(n))
}

// poolWidth returns the current worker-pool width.
func poolWidth() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// parallelFor runs fn(i) for every i in [0, n) on up to poolWidth()
// workers and returns the lowest-index error. At width 1 it degenerates to
// the plain serial loop (including early exit on error), so experiment
// output and error behavior at -parallel 1 match the pre-parallel code.
func parallelFor(n int, fn func(i int) error) error {
	width := poolWidth()
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Result records one experiment's execution in a RunAll pass.
type Result struct {
	// ID and Title identify the experiment.
	ID, Title string
	// WallSeconds is the experiment's own wall time (inside its worker, so
	// under -parallel it is per-experiment work, not elapsed runner time).
	WallSeconds float64
}

// RunAll executes every experiment and writes their tables to w in paper
// order. parallelism bounds the worker pool (< 1 means runtime.NumCPU());
// at 1 the experiments run serially and stream to w exactly as the
// pre-parallel runner did, while at N > 1 each experiment writes into its
// own buffer and the buffers are emitted in paper order, so the bytes
// written to w are identical for every parallelism. The returned results
// carry per-experiment wall times (paper order), including the experiments
// that completed before any failure.
func RunAll(w io.Writer, quick bool, parallelism int) ([]Result, error) {
	if parallelism < 1 {
		parallelism = runtime.NumCPU()
	}
	prev := int(workers.Load())
	workers.Store(int64(parallelism))
	defer workers.Store(int64(prev))
	exps := All()
	results := make([]Result, 0, len(exps))

	if parallelism == 1 {
		for i, e := range exps {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "=== %s: %s\n\n", e.ID, e.Title)
			start := time.Now()
			if err := e.Run(w, quick); err != nil {
				return results, fmt.Errorf("%s: %w", e.ID, err)
			}
			results = append(results, Result{ID: e.ID, Title: e.Title, WallSeconds: time.Since(start).Seconds()})
		}
		return results, nil
	}

	bufs := make([]bytes.Buffer, len(exps))
	walls := make([]float64, len(exps))
	errs := make([]error, len(exps))
	var next atomic.Int64
	var wg sync.WaitGroup
	width := parallelism
	if width > len(exps) {
		width = len(exps)
	}
	for wi := 0; wi < width; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				start := time.Now()
				errs[i] = exps[i].Run(&bufs[i], quick)
				walls[i] = time.Since(start).Seconds()
			}
		}()
	}
	wg.Wait()

	for i, e := range exps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s: %s\n\n", e.ID, e.Title)
		if _, err := io.Copy(w, &bufs[i]); err != nil {
			return results, err
		}
		if errs[i] != nil {
			return results, fmt.Errorf("%s: %w", e.ID, errs[i])
		}
		results = append(results, Result{ID: e.ID, Title: e.Title, WallSeconds: walls[i]})
	}
	return results, nil
}

// SolverEvals reports both solvers' cost-evaluation counters for one
// architecture on the standard calibration workload and testbed
// environment; perf-trajectory tracking records them next to wall times.
type SolverEvals struct {
	Arch                string `json:"arch"`
	NumExits            int    `json:"num_exits"`
	ExhaustiveEvals     int    `json:"exhaustive_evals"`
	BranchAndBoundEvals int    `json:"branch_and_bound_evals"`
}

// SolverEvalCounts runs both exit-setting solvers once per architecture and
// returns their Evals counters.
func SolverEvalCounts() ([]SolverEvals, error) {
	var out []SolverEvals
	for _, p := range model.All() {
		sigma, err := calibrated(p)
		if err != nil {
			return nil, err
		}
		in, err := exitsetting.NewInstance(p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B))
		if err != nil {
			return nil, err
		}
		out = append(out, SolverEvals{
			Arch:                p.Name,
			NumExits:            p.NumExits(),
			ExhaustiveEvals:     in.Exhaustive().Evals,
			BranchAndBoundEvals: in.BranchAndBound().Evals,
		})
	}
	return out, nil
}
