package control

import (
	"math"
	"math/rand"
	"slices"
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
			batch, _, _ := q.Next(now)
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
	if batch, _, _ := q.Next(0); len(batch) != 1 {
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
	if batch, _, wake := q.Next(0); len(batch) != 0 || wake != 0.5 {
		t.Fatalf("lone job: batch %v wake %v, want a held window to 0.5", batch, wake)
	}
	q.Admit(0.1, Job{Cost: 1}, 1)
	if batch, _, wake := q.Next(0.1); len(batch) != 0 || wake != 0.5 {
		t.Fatalf("two of three: batch %v wake %v, want the window still held", batch, wake)
	}
	q.Admit(0.2, Job{Cost: 2}, 2)
	if batch, _, _ := q.Next(0.2); len(batch) != 2 {
		t.Fatalf("foreign class behind the head: batch %v, want the two waiting jobs", batch)
	}
	if batch, _, wake := q.Next(0.2); batch != nil || !math.IsInf(wake, 1) {
		t.Errorf("Next while serving: %v %v, want nothing until Done", batch, wake)
	}
	q.Done(0.3, nil)
	if batch, _, wake := q.Next(0.3); len(batch) != 0 || wake != 0.8 {
		t.Fatalf("second class: batch %v wake %v, want its own window to 0.8", batch, wake)
	}
	if batch, _, _ := q.Next(0.8); len(batch) != 1 || batch[0] != 2 {
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
	if batch, _, wakeAt := q.Next(0); len(batch) != 0 || wakeAt != 1 {
		t.Fatalf("lone job: batch %v wake %v, want a window held to 1", batch, wakeAt)
	}
	q.Admit(0.5, Job{Cost: 2, Deadline: 5}, 1)
	batch, _, _ := q.Next(0.5)
	if len(batch) != 1 || batch[0] != 0 {
		t.Fatalf("urgent foreign arrival: batch %v, want the held window's [0]", batch)
	}
	q.Done(1.5, nil)
	if batch, _, wakeAt := q.Next(1.5); len(batch) != 0 || wakeAt != 2.5 {
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
		batch, _, wakeAt := q.Next(now)
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

// arrival is one job of a replayed script: it is admitted at at.
type arrival struct {
	at  float64
	job Job
}

// servedBatch is one batch a replay handed out: its members (script
// indices), its start and the instant it was reported Done.
type servedBatch struct {
	ids         []int
	start, done float64
}

// replay drives q, serving one work unit per second, through script (in
// arrival order) the way a wall-clock executor does: each arrival is
// admitted at its instant; a server free and idle is woken by an arrival;
// one holding a window wakes at its close or at an arrival; one burning
// wakes at the batch's modelled end. Every wake comes lag() late, and a
// burn is reported Done at its modelled end, start plus amortized service,
// however late the server woke from it. With lag zero the server asks at
// exactly the instants the simulator's station does.
func replay(q *Queue[int], script []arrival, lag func() float64) []servedBatch {
	var out []servedBatch
	var cur servedBatch
	ask, doneAt := math.Inf(1), math.Inf(1) // the server's next ask, its burn's return
	for i := 0; i < len(script) || !math.IsInf(ask, 1) || !math.IsInf(doneAt, 1); {
		switch {
		case i < len(script) && script[i].at <= math.Min(ask, doneAt):
			q.Admit(script[i].at, script[i].job, i)
			if math.IsInf(doneAt, 1) {
				ask = math.Min(ask, script[i].at+lag())
			}
			i++
		case doneAt <= ask:
			q.Done(cur.done, nil)
			out = append(out, cur)
			ask, doneAt = doneAt, math.Inf(1)
		default:
			batch, start, wakeAt := q.Next(ask)
			if len(batch) == 0 {
				ask = wakeAt + lag()
				continue
			}
			service := q.Policy().Batch.Amortized(script[batch[0]].job.Cost, len(batch))
			cur = servedBatch{ids: append([]int(nil), batch...), start: start, done: start + service}
			ask, doneAt = math.Inf(1), math.Max(cur.done, ask)+lag()
		}
	}
	return out
}

// TestQueueLateDriverKeepsSchedule replays one seeded arrival script (three
// batch classes at about 80 % load, deadlines for EDF) with an on-time
// server and with one whose every wake is a seeded exponential lag late,
// a third of a mean service on average. Under FIFO, unbatched and with a
// static window, the late server gets the same batches with the same
// starts and Done instants: its lateness never reaches the schedule.
// Under EDF the batches may differ, but each starts no earlier than the
// arrival of its every member and no earlier than the previous Done.
func TestQueueLateDriverKeepsSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := []float64{1, 1.5, 2}
	var script []arrival
	for at := 0.0; len(script) < 2000; {
		at += rng.ExpFloat64() * 1.5 / 0.8 // mean service 1.5 s at 80 % load
		script = append(script, arrival{at, Job{Cost: costs[rng.Intn(len(costs))], Deadline: at + 2 + 20*rng.Float64()}})
	}
	onTime := func() float64 { return 0 }
	late := func() float64 { return rng.ExpFloat64() * 0.5 }
	window := Batch{MaxSize: 3, MaxDelaySec: 0.8}
	for _, p := range []Policy{{}, {Batch: window}} {
		want := replay(NewQueue[int](p, 1), script, onTime)
		got := replay(NewQueue[int](p, 1), script, late)
		if len(got) != len(want) {
			t.Fatalf("FIFO %+v: late server handed out %d batches, on time %d", p.Batch, len(got), len(want))
		}
		for k := range want {
			w, g := want[k], got[k]
			if g.start != w.start || g.done != w.done || !slices.Equal(g.ids, w.ids) {
				t.Fatalf("FIFO %+v: batch %d late %+v, on time %+v", p.Batch, k, g, w)
			}
		}
	}
	for _, p := range []Policy{{EDF: true}, {EDF: true, Batch: window}, {EDF: true, AdaptiveBatch: true}} {
		done, n := math.Inf(-1), 0
		for k, b := range replay(NewQueue[int](p, 1), script, late) {
			if b.start < done {
				t.Fatalf("EDF %+v: batch %d starts at %v, before the previous Done at %v", p, k, b.start, done)
			}
			for _, id := range b.ids {
				if b.start < script[id].at {
					t.Fatalf("EDF %+v: batch %d starts at %v, before member %d arrived at %v", p, k, b.start, id, script[id].at)
				}
			}
			done, n = b.done, n+len(b.ids)
		}
		if n != len(script) {
			t.Errorf("EDF %+v: served %d of %d jobs", p, n, len(script))
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
			batch, _, wakeAt := q.Next(now)
			if len(batch) == 0 {
				// The adaptive window holds a lone job until it closes.
				now = wakeAt
				batch, _, _ = q.Next(now)
			}
			if len(batch) != 1 {
				b.Fatalf("batch %v, want the one job", batch)
			}
			clock[k] = now + 0.001
			q.Done(clock[k], nil)
		}
	}
}
