package sim

import (
	"math"
	"testing"

	"leime/internal/cluster"
	"leime/internal/control"
	"leime/internal/offload"
)

// near absorbs float64 rounding in model-second arithmetic.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestStationZeroBatchIsExactFIFO pins the default: a station with the zero
// Batch value observes identical (enqueued, started, finish) triples to one
// never given a policy.
func TestStationZeroBatchIsExactFIFO(t *testing.T) {
	type obs struct{ enq, start, fin float64 }
	run := func(set bool) []obs {
		var eng engine
		st := newStation("s")
		if set {
			st.setPolicy(control.Policy{Batch: control.Batch{}})
		}
		var got []obs
		submit := func(at, dur, extra float64) {
			eng.At(at, func() {
				st.SubmitObserved(&eng, dur, extra, func(enq, start, fin float64) {
					got = append(got, obs{enq, start, fin})
				})
			})
		}
		submit(0, 0.5, 0)
		submit(0.1, 0.25, 0.05)
		submit(2, 0.1, 0)
		if _, err := eng.Run(100); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	plain, zeroed := run(false), run(true)
	if len(plain) != len(zeroed) {
		t.Fatalf("observation counts differ: %d vs %d", len(plain), len(zeroed))
	}
	for i := range plain {
		if plain[i] != zeroed[i] {
			t.Errorf("observation %d differs: %+v vs %+v", i, plain[i], zeroed[i])
		}
	}
}

// TestStationBatchCoalesces submits co-arriving same-class jobs and checks
// one shared amortized burn: common start, common finish at the amortized
// duration, not the serial sum.
func TestStationBatchCoalesces(t *testing.T) {
	var eng engine
	st := newStation("s")
	st.setPolicy(control.Policy{Batch: control.Batch{MaxSize: 4, MaxDelaySec: 0.5}})
	var starts, fins []float64
	for i := 0; i < 4; i++ {
		eng.At(0, func() {
			st.SubmitObserved(&eng, 0.1, 0, func(_, start, fin float64) {
				starts = append(starts, start)
				fins = append(fins, fin)
			})
		})
	}
	if _, err := eng.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fins) != 4 {
		t.Fatalf("completed %d jobs, want 4", len(fins))
	}
	// Full batch of 4 at 0.1s each: 0.1*(1+3*0.25) = 0.175, fired at t=0
	// when the window fills — not held to the 0.5s deadline.
	for i := range fins {
		if starts[i] != 0 || !near(fins[i], 0.175) {
			t.Errorf("job %d: start=%v fin=%v, want start=0 fin=0.175", i, starts[i], fins[i])
		}
	}
	if got := st.busyTotal; !near(got, 0.175) {
		t.Errorf("busy seconds = %v, want the amortized 0.175", got)
	}
	if got := st.served; got != 4 {
		t.Errorf("served = %d, want 4", got)
	}
}

// TestStationBatchWindowDeadline submits fewer jobs than MaxSize and checks
// the window deadline fires the partial batch.
func TestStationBatchWindowDeadline(t *testing.T) {
	var eng engine
	st := newStation("s")
	st.setPolicy(control.Policy{Batch: control.Batch{MaxSize: 8, MaxDelaySec: 0.2}})
	var fins []float64
	for _, at := range []float64{0, 0.05} {
		eng.At(at, func() {
			st.SubmitObserved(&eng, 0.1, 0, func(_, _, fin float64) {
				fins = append(fins, fin)
			})
		})
	}
	if _, err := eng.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Window opens at the first arrival (t=0), fires at t=0.2; two jobs
	// burn 0.1*(1+0.25) = 0.125, finishing at 0.325.
	if len(fins) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(fins))
	}
	for i, fin := range fins {
		if !near(fin, 0.325) {
			t.Errorf("job %d finish = %v, want 0.325", i, fin)
		}
	}
}

// TestStationBatchClassChangeCapsWindow checks a different-duration job
// closes the open batch so FIFO order holds across classes.
func TestStationBatchClassChangeCapsWindow(t *testing.T) {
	var eng engine
	st := newStation("s")
	st.setPolicy(control.Policy{Batch: control.Batch{MaxSize: 8, MaxDelaySec: 1}})
	var aFin, bFin float64
	eng.At(0, func() {
		st.SubmitObserved(&eng, 0.1, 0, func(_, _, fin float64) { aFin = fin })
	})
	eng.At(0.05, func() {
		st.SubmitObserved(&eng, 0.3, 0, func(_, _, fin float64) { bFin = fin })
	})
	if _, err := eng.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The 0.3s job arriving at t=0.05 fires the lone 0.1s batch immediately
	// (finish 0.15). Its own window opens when the server asks for work at
	// t=0.15 and closes at t=1.15: finish 1.45.
	if !near(aFin, 0.15) {
		t.Errorf("first-class finish = %v, want 0.15 (fired by class change, not the 1s deadline)", aFin)
	}
	if !near(bFin, 1.45) {
		t.Errorf("second-class finish = %v, want 1.45", bFin)
	}
	if aFin >= bFin {
		t.Errorf("FIFO violated: earlier class finished at %v after later class at %v", aFin, bFin)
	}
}

// TestStationWindowOpensWhenServerAsks pins the batch window's anchor: it
// opens when the server asks for work, not at its head's arrival. Two jobs
// of one class arrive 0.6 s apart while a long job holds the server; when
// the server frees at t=1.5 both are waiting and burn as one full batch.
// A window anchored at the first one's arrival would have closed at t=1.1
// and served them apart.
func TestStationWindowOpensWhenServerAsks(t *testing.T) {
	var eng engine
	st := newStation("s")
	st.setPolicy(control.Policy{Batch: control.Batch{MaxSize: 2, MaxDelaySec: 0.5}})
	var fins []float64
	for _, sub := range []struct{ at, dur float64 }{{0, 1}, {0.6, 0.1}, {1.2, 0.1}} {
		eng.At(sub.at, func() {
			st.SubmitObserved(&eng, sub.dur, 0, func(_, _, fin float64) { fins = append(fins, fin) })
		})
	}
	if _, err := eng.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The lone long job holds its window to t=0.5 and burns to t=1.5; the
	// pair then burns 0.1*(1+0.25) = 0.125.
	want := []float64{1.5, 1.625, 1.625}
	if len(fins) != len(want) {
		t.Fatalf("completed %d jobs, want %d", len(fins), len(want))
	}
	for i := range want {
		if !near(fins[i], want[i]) {
			t.Errorf("finishes %v, want %v", fins, want)
			break
		}
	}
}

// TestStationBacklogCountsParkedJobs parks two jobs in an open batch window
// and checks Backlog counts them: a backlog budget must see work that is
// accepted but not yet in service, as the runtime executor does. Once the
// window fires, the batch in service still counts at full cost until it
// finishes.
func TestStationBacklogCountsParkedJobs(t *testing.T) {
	var eng engine
	st := newStation("s")
	st.setPolicy(control.Policy{Batch: control.Batch{MaxSize: 8, MaxDelaySec: 1}})
	eng.At(0, func() {
		st.Submit(&eng, 0.5, 0, nil)
		st.Submit(&eng, 0.5, 0, nil)
		if got := st.QueueLen(); got != 2 {
			t.Errorf("QueueLen = %d, want 2", got)
		}
		// Parked jobs count at their unamortized 0.5 s each.
		if got := st.Backlog(); !near(got, 1) {
			t.Errorf("Backlog at t=0 with two parked jobs = %v, want 1", got)
		}
	})
	eng.At(1.1, func() {
		// The window fired at t=1: one amortized burn of 0.5*1.25 s runs to
		// t=1.625, and its two jobs count in full until then.
		if got := st.Backlog(); !near(got, 1) {
			t.Errorf("Backlog at t=1.1 with the batch in service = %v, want 1", got)
		}
	})
	if _, err := eng.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := st.Backlog(); got != 0 {
		t.Errorf("Backlog after drain = %v, want 0", got)
	}
}

// batchSimConfig is a congested event-sim setup: a slow edge with
// EdgeOnly-leaning offloading so edge shares queue deeply.
func batchSimConfig(edgeBatch control.Batch) EventConfig {
	model := offload.ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
	always := offload.FixedRatio(1)
	devices := make([]DeviceSpec, 4)
	for i := range devices {
		devices[i] = DeviceSpec{
			Device: offload.Device{
				FLOPS:        1e9,
				BandwidthBps: 10e6,
				LatencySec:   0.01,
				ArrivalMean:  3,
			},
			Policy: &always,
		}
	}
	return EventConfig{
		Model:      model,
		Devices:    devices,
		EdgeFLOPS:  1.2e10,
		CloudFLOPS: 1e12,
		EdgeCloud:  cluster.Path{BandwidthBps: 100e6, LatencySec: 0.02},
		TauSec:     1,
		V:          1e-4,
		Slots:      40,
		Seed:       7,
		EdgePolicy: control.Policy{Batch: edgeBatch},
	}
}

// TestEventSimEdgeBatching runs the congested scenario with and without
// edge batching: both conserve tasks, runs are deterministic, and batching
// lowers mean completion time by amortizing queued same-block work.
func TestEventSimEdgeBatching(t *testing.T) {
	base, err := RunEvents(batchSimConfig(control.Batch{}))
	if err != nil {
		t.Fatalf("unbatched RunEvents: %v", err)
	}
	batched, err := RunEvents(batchSimConfig(control.Batch{MaxSize: 8, MaxDelaySec: 0.05}))
	if err != nil {
		t.Fatalf("batched RunEvents: %v", err)
	}
	again, err := RunEvents(batchSimConfig(control.Batch{MaxSize: 8, MaxDelaySec: 0.05}))
	if err != nil {
		t.Fatalf("batched rerun: %v", err)
	}
	if batched.Completed != batched.Generated || batched.Generated == 0 {
		t.Fatalf("conservation: generated %d, completed %d", batched.Generated, batched.Completed)
	}
	if batched.Generated != base.Generated {
		t.Errorf("batching changed the arrival process: %d vs %d tasks", batched.Generated, base.Generated)
	}
	if batched.TCT.Mean() != again.TCT.Mean() || batched.Completed != again.Completed {
		t.Error("batched run not deterministic under a fixed seed")
	}
	if batched.TCT.Mean() >= base.TCT.Mean() {
		t.Errorf("batching did not help under congestion: mean TCT %v (batched) vs %v (unbatched)",
			batched.TCT.Mean(), base.TCT.Mean())
	}
	t.Logf("mean TCT: unbatched %.3fs, batched %.3fs", base.TCT.Mean(), batched.TCT.Mean())
}
