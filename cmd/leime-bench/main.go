// Command leime-bench regenerates the paper's evaluation artifacts: every
// figure and the motivation-section numbers. Run one experiment with
// -experiment fig7, or everything with -experiment all. Independent
// experiments (and the heavy experiments' inner sweeps) run on a bounded
// worker pool sized by -parallel; the emitted tables are byte-identical at
// every parallelism. -json records per-experiment wall times and the
// solvers' cost-evaluation counters for perf-trajectory tracking, and
// -cpuprofile captures a pprof profile of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"leime/internal/bench"
)

// report is the machine-readable run record -json emits.
type report struct {
	Quick            bool                `json:"quick"`
	Parallelism      int                 `json:"parallelism"`
	GOMAXPROCS       int                 `json:"gomaxprocs"`
	TotalWallSeconds float64             `json:"total_wall_seconds"`
	Experiments      []experimentRecord  `json:"experiments"`
	SolverEvals      []bench.SolverEvals `json:"solver_evals"`
}

type experimentRecord struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	WallSeconds float64 `json:"wall_seconds"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leime-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		list       = flag.Bool("list", false, "list experiments and exit")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker-pool width for experiments and inner sweeps (1 = serial)")
		jsonPath   = flag.String("json", "", "write per-experiment wall times and solver eval counters to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	var results []bench.Result
	if *experiment == "all" {
		var err error
		results, err = bench.RunAll(os.Stdout, *quick, *parallel)
		if err != nil {
			return err
		}
	} else {
		e, err := bench.ByID(*experiment)
		if err != nil {
			return err
		}
		bench.SetParallelism(*parallel)
		fmt.Printf("=== %s: %s\n\n", e.ID, e.Title)
		expStart := time.Now()
		if err := e.Run(os.Stdout, *quick); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		results = []bench.Result{{ID: e.ID, Title: e.Title, WallSeconds: time.Since(expStart).Seconds()}}
	}

	if *jsonPath != "" {
		evals, err := bench.SolverEvalCounts()
		if err != nil {
			return fmt.Errorf("solver evals: %w", err)
		}
		rep := report{
			Quick:            *quick,
			Parallelism:      *parallel,
			GOMAXPROCS:       runtime.GOMAXPROCS(0),
			TotalWallSeconds: time.Since(start).Seconds(),
			SolverEvals:      evals,
		}
		for _, r := range results {
			rep.Experiments = append(rep.Experiments, experimentRecord{ID: r.ID, Title: r.Title, WallSeconds: r.WallSeconds})
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return fmt.Errorf("json: %w", err)
		}
		return f.Close()
	}
	return nil
}
