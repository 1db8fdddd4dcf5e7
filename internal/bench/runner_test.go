package bench

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"leime/internal/model"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	hits := make([]int, 100)
	if err := parallelFor(len(hits), func(i int) error {
		hits[i]++
		return nil
	}); err != nil {
		t.Fatalf("parallelFor: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d ran %d times", i, h)
		}
	}
}

func TestParallelForReturnsLowestIndexError(t *testing.T) {
	for _, width := range []int{1, 4} {
		SetParallelism(width)
		err := parallelFor(10, func(i int) error {
			if i >= 3 {
				return io.ErrUnexpectedEOF
			}
			return nil
		})
		SetParallelism(0)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("width %d: err = %v, want ErrUnexpectedEOF", width, err)
		}
	}
}

// TestRunAllParallelMatchesSerial is the determinism contract of the
// parallel runner: the bytes emitted at -parallel N>1 equal the serial
// run's, for the whole output.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	var serial, par bytes.Buffer
	if _, err := RunAll(&serial, true, 1); err != nil {
		t.Fatalf("serial RunAll: %v", err)
	}
	results, err := RunAll(&par, true, 4)
	if err != nil {
		t.Fatalf("parallel RunAll: %v", err)
	}
	all := All()
	if len(results) != len(all) {
		t.Fatalf("got %d results, want %d", len(results), len(all))
	}
	for i, r := range results {
		if r.ID != all[i].ID {
			t.Errorf("result %d is %q, want paper order %q", i, r.ID, all[i].ID)
		}
		if r.WallSeconds <= 0 {
			t.Errorf("%s: non-positive wall time %v", r.ID, r.WallSeconds)
		}
	}
	s, p := serial.String(), par.String()
	if len(s) < 1000 || !strings.Contains(s, "=== ext-joint") {
		t.Fatalf("suspicious serial output (%d bytes)", serial.Len())
	}
	if s != p {
		t.Errorf("parallel output differs from serial:\nserial %d bytes, parallel %d bytes", len(s), len(p))
		sl, pl := strings.Split(s, "\n"), strings.Split(p, "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Errorf("first difference at line %d:\nserial:   %q\nparallel: %q", i+1, sl[i], pl[i])
				break
			}
		}
	}
}

// TestRunAllConcurrentWithCalibration runs the parallel runner while other
// goroutines calibrate every architecture; run under -race it proves
// calibration and the concurrent experiment paths share no mutable state.
func TestRunAllConcurrentWithCalibration(t *testing.T) {
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := RunAll(io.Discard, true, 4); err != nil {
			select {
			case errCh <- err:
			default:
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, p := range model.All() {
					if _, err := calibrated(p); err != nil {
						select {
						case errCh <- err:
						default:
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestSolverEvalCounts(t *testing.T) {
	evals, err := SolverEvalCounts()
	if err != nil {
		t.Fatalf("SolverEvalCounts: %v", err)
	}
	if len(evals) != len(model.All()) {
		t.Fatalf("got %d architectures, want %d", len(evals), len(model.All()))
	}
	for _, e := range evals {
		m := e.NumExits
		if want := (m - 1) * (m - 2) / 2; e.ExhaustiveEvals != want {
			t.Errorf("%s: exhaustive evals %d, want %d", e.Arch, e.ExhaustiveEvals, want)
		}
		if e.BranchAndBoundEvals <= 0 || e.BranchAndBoundEvals > e.ExhaustiveEvals+m {
			t.Errorf("%s: implausible branch-and-bound evals %d", e.Arch, e.BranchAndBoundEvals)
		}
	}
}
