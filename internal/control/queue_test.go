package control

import (
	"math"
	"testing"
)

// TestQueueFIFOAndEDF pins the service order: FIFO by default, and under
// EDF earliest deadline first with deadline-free jobs last, ties in arrival
// order.
func TestQueueFIFOAndEDF(t *testing.T) {
	jobs := []Job{{Cost: 1}, {Cost: 2, Deadline: 9}, {Cost: 3, Deadline: 5}, {Cost: 4}, {Cost: 5, Deadline: 5}}
	for _, c := range []struct {
		edf  bool
		want []int
	}{{false, []int{0, 1, 2, 3, 4}}, {true, []int{2, 4, 1, 0, 3}}} {
		q := NewQueue[int](Policy{EDF: c.edf}, 1)
		for i, j := range jobs {
			q.Admit(0, j, i)
		}
		var got []int
		for now := 0.0; ; now++ {
			batch, _ := q.Next(now)
			if len(batch) == 0 {
				break
			}
			got = append(got, batch...)
			q.Done(now+1, nil)
		}
		for i := range c.want {
			if i >= len(got) || got[i] != c.want[i] {
				t.Errorf("EDF=%v: order %v, want %v", c.edf, got, c.want)
				break
			}
		}
	}
}

// TestQueueAdmission pins admission: the budget counts every admitted job
// at full cost until Done, and deadline admission refuses a job whose
// quoted wait plus service misses its deadline.
func TestQueueAdmission(t *testing.T) {
	q := NewQueue[int](Policy{MaxBacklogSec: 2, DeadlineAdmission: true}, 2)
	if v := q.Admit(0, Job{Cost: 2}, 0); v.OverBudget || v.Infeasible {
		t.Fatalf("first job refused: %+v", v)
	}
	if batch, _ := q.Next(0); len(batch) != 1 {
		t.Fatalf("idle queue handed out %v", batch)
	}
	// 1 s in service plus 1 s queued fills the 2 s budget.
	if v := q.Admit(0.5, Job{Cost: 2}, 1); v.OverBudget {
		t.Fatalf("second job refused at the budget: %+v", v)
	}
	if v := q.Admit(0.5, Job{Cost: 1}, 2); !v.OverBudget || v.BacklogSec != 2.5 {
		t.Errorf("over-budget job: %+v, want OverBudget at 2.5 s", v)
	}
	if got := q.Backlog(); got != 4 {
		t.Errorf("Backlog = %v, want 4 work units", got)
	}
	// 2 s of backlog plus 0.5 s of service from t=0.5 ends at 3.0.
	if v := q.Admit(0.5, Job{Cost: 1, Deadline: 2.9}, 3); !v.Infeasible || v.WaitSec != 2 {
		t.Errorf("doomed job: %+v, want Infeasible quoting 2 s", v)
	}
}

// TestQueuePredictorLearnsFromDeadlineJobs pins what calibrates the
// predictor: the waits of jobs admission judged against a deadline. A
// deadline-free job quoted 1 s that waits 5 s leaves the bias at 1; the
// same wait on a deadline job moves it.
func TestQueuePredictorLearnsFromDeadlineJobs(t *testing.T) {
	for _, c := range []struct {
		deadline float64
		moved    bool
	}{{0, false}, {100, true}} {
		q := NewQueue[int](Policy{DeadlineAdmission: true}, 1)
		q.Admit(0, Job{Cost: 1}, 0)
		q.Next(0)
		q.Admit(0, Job{Cost: 1, Deadline: c.deadline}, 1)
		q.Done(5, nil)
		q.Next(5)
		q.Done(6, nil)
		if moved := q.pred.bias != 1; moved != c.moved {
			t.Errorf("deadline %v: bias %v after a 5 s wait quoted 1 s, moved = %v, want %v", c.deadline, q.pred.bias, moved, c.moved)
		}
	}
}

// TestQueueBatchWindow pins batch collection: the window opens when the
// server asks, fires when full or when another class waits behind the
// head, and otherwise names its close as the wake time.
func TestQueueBatchWindow(t *testing.T) {
	q := NewQueue[int](Policy{Batch: Batch{MaxSize: 3, MaxDelaySec: 0.5}}, 1)
	q.Admit(0, Job{Cost: 1}, 0)
	if batch, wake := q.Next(0); len(batch) != 0 || wake != 0.5 {
		t.Fatalf("lone job: batch %v wake %v, want a held window to 0.5", batch, wake)
	}
	q.Admit(0.1, Job{Cost: 1}, 1)
	if batch, wake := q.Next(0.1); len(batch) != 0 || wake != 0.5 {
		t.Fatalf("two of three: batch %v wake %v, want the window still held", batch, wake)
	}
	q.Admit(0.2, Job{Cost: 2}, 2)
	if batch, _ := q.Next(0.2); len(batch) != 2 {
		t.Fatalf("foreign class behind the head: batch %v, want the two waiting jobs", batch)
	}
	if batch, wake := q.Next(0.2); batch != nil || !math.IsInf(wake, 1) {
		t.Errorf("Next while serving: %v %v, want nothing until Done", batch, wake)
	}
	q.Done(0.3, nil)
	if batch, wake := q.Next(0.3); len(batch) != 0 || wake != 0.8 {
		t.Fatalf("second class: batch %v wake %v, want its own window to 0.8", batch, wake)
	}
	if batch, _ := q.Next(0.8); len(batch) != 1 || batch[0] != 2 {
		t.Errorf("window close: batch %v, want [2]", batch)
	}
}

// TestQueueUrgentArrivalFiresHeldWindow pins EDF against an open window:
// a more urgent job of another class that arrives while a window is held
// fires the held batch, which burns first. The window is not thrown away
// and restarted behind the newcomer.
func TestQueueUrgentArrivalFiresHeldWindow(t *testing.T) {
	q := NewQueue[int](Policy{EDF: true, Batch: Batch{MaxSize: 4, MaxDelaySec: 1}}, 1)
	q.Admit(0, Job{Cost: 1, Deadline: 50}, 0)
	if batch, wakeAt := q.Next(0); len(batch) != 0 || wakeAt != 1 {
		t.Fatalf("lone job: batch %v wake %v, want a window held to 1", batch, wakeAt)
	}
	q.Admit(0.5, Job{Cost: 2, Deadline: 5}, 1)
	batch, _ := q.Next(0.5)
	if len(batch) != 1 || batch[0] != 0 {
		t.Fatalf("urgent foreign arrival: batch %v, want the held window's [0]", batch)
	}
	q.Done(1.5, nil)
	if batch, wakeAt := q.Next(1.5); len(batch) != 0 || wakeAt != 2.5 {
		t.Errorf("after the held batch: %v wake %v, want the urgent job's own window to 2.5", batch, wakeAt)
	}
}

// TestQueueBatchTakesHeadClass pins batch composition: the head's class
// joins its batch past a job of another class, which keeps its place.
func TestQueueBatchTakesHeadClass(t *testing.T) {
	q := NewQueue[int](Policy{Batch: Batch{MaxSize: 2, MaxDelaySec: 1}}, 1)
	for i, c := range []float64{1, 2, 1, 1} {
		q.Admit(0, Job{Cost: c}, i)
	}
	var got [][]int
	for now := 0.0; now < 10; now++ {
		batch, wakeAt := q.Next(now)
		if len(batch) == 0 {
			if math.IsInf(wakeAt, 1) {
				break
			}
			continue
		}
		got = append(got, append([]int(nil), batch...))
		q.Done(now, nil)
	}
	want := [][]int{{0, 2}, {1}, {3}}
	if len(got) != len(want) {
		t.Fatalf("batches %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || got[i][0] != want[i][0] || got[i][len(got[i])-1] != want[i][len(want[i])-1] {
			t.Fatalf("batches %v, want %v", got, want)
		}
	}
}

// BenchmarkQueueCycle runs, per op, one Admit→Next→Done cycle on a queue
// under the zero policy and one on a queue under the full edge policy
// (backlog budget, deadline admission, EDF, adaptive window). CI budgets
// it at zero allocations.
func BenchmarkQueueCycle(b *testing.B) {
	queues := []*Queue[int]{
		NewQueue[int](Policy{}, 1e9),
		NewQueue[int](Policy{MaxBacklogSec: 3, DeadlineAdmission: true, EDF: true, AdaptiveBatch: true}, 1e9),
	}
	var clock [2]float64 // each queue's own clock, in seconds
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k, q := range queues {
			now := clock[k] + 0.001
			if v := q.Admit(now, Job{Cost: 1e6, Deadline: now + 1}, i); v.OverBudget || v.Infeasible {
				b.Fatalf("refused: %+v", v)
			}
			batch, wakeAt := q.Next(now)
			if len(batch) == 0 {
				// The adaptive window holds a lone job until it closes.
				now = wakeAt
				batch, _ = q.Next(now)
			}
			if len(batch) != 1 {
				b.Fatalf("batch %v, want the one job", batch)
			}
			clock[k] = now + 0.001
			q.Done(clock[k], nil)
		}
	}
}
