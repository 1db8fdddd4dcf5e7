package sim

import (
	"sync"
	"testing"
	"time"

	"leime/internal/runtime"
)

// TestBacklogAgreesAcrossClocks runs one scene on both clocks — a 1 s job
// in service and a second 1 s job queued behind it — and requires the
// simulator's station and the runtime executor to report the same backlog:
// both jobs at full cost until they finish, 2 s, the rule the live edge
// admits by and reports as H_i.
func TestBacklogAgreesAcrossClocks(t *testing.T) {
	var eng engine
	st := newStation("edge")
	eng.At(0, func() {
		st.Submit(&eng, 1, 0, nil)
		st.Submit(&eng, 1, 0, nil)
	})
	eng.RunUntil(0.5) // half-way through the first job's service
	simSec := st.Backlog()

	// 1e8 FLOPs at 1e8 FLOPS is one model second, burnt in 500 ms.
	exec, err := runtime.NewExecutor(1e8, 0.5)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer exec.Close()
	var wg sync.WaitGroup
	submit := func(pending int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := exec.Do(1e8); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
		waitFor(t, func() bool { return exec.Pending() == pending })
	}
	submit(1) // in service at once: the executor was idle
	submit(2) // queued behind it
	rtSec := exec.BacklogSeconds()
	wg.Wait()

	if simSec != rtSec {
		t.Errorf("backlog with one job in service and one queued: sim %v s, runtime %v s", simSec, rtSec)
	}
	if simSec != 2 {
		t.Errorf("sim backlog %v s, want 2 (both jobs at full cost)", simSec)
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the executor")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
