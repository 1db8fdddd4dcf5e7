package sim

import (
	"math"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	var e engine
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	if _, err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineTieBreaksInScheduleOrder(t *testing.T) {
	var e engine
	var got []string
	e.At(1, func() { got = append(got, "a") })
	e.At(1, func() { got = append(got, "b") })
	e.At(1, func() { got = append(got, "c") })
	if _, err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("tie-break order wrong: %v", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e engine
	fired := 0
	e.At(1, func() { fired++ })
	e.At(5, func() { fired++ })
	e.RunUntil(2)
	if fired != 1 {
		t.Errorf("fired = %d after RunUntil(2), want 1", fired)
	}
	if e.Now() != 2 {
		t.Errorf("Now() = %v, want 2", e.Now())
	}
	if e.events.Len() != 1 {
		t.Errorf("pending events = %d, want 1", e.events.Len())
	}
	if _, err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestEnginePastEventsClampToNow(t *testing.T) {
	var e engine
	var at float64 = -1
	e.At(5, func() {
		e.At(1, func() { at = e.Now() }) // scheduled in the past
	})
	if _, err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5 {
		t.Errorf("past event ran at %v, want clamp to 5", at)
	}
}

func TestEngineEventBudget(t *testing.T) {
	var e engine
	var loop func()
	loop = func() { e.After(1, loop) }
	e.At(0, loop)
	if _, err := e.Run(50); err == nil {
		t.Error("runaway loop not detected")
	}
}

func TestStationFIFOHandComputed(t *testing.T) {
	// Three jobs of 2s each submitted at t=0, 1, 5:
	// job1 runs 0..2, job2 queues and runs 2..4, job3 runs 5..7.
	var e engine
	s := newStation("cpu")
	var finishes []float64
	submit := func(at float64) {
		e.At(at, func() {
			s.Submit(&e, 2, 0, func(fin float64) { finishes = append(finishes, fin) })
		})
	}
	submit(0)
	submit(1)
	submit(5)
	if _, err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []float64{2, 4, 7}
	if len(finishes) != len(want) {
		t.Fatalf("finishes = %v, want %v", finishes, want)
	}
	for i := range want {
		if math.Abs(finishes[i]-want[i]) > 1e-12 {
			t.Errorf("finish[%d] = %v, want %v", i, finishes[i], want[i])
		}
	}
}

func TestStationExtraDelayDoesNotOccupyServer(t *testing.T) {
	// A link with 1s transmission + 10s propagation: the second transfer
	// starts right after the first transmission ends, not after propagation.
	var e engine
	link := newStation("link")
	var finishes []float64
	e.At(0, func() {
		link.Submit(&e, 1, 10, func(fin float64) { finishes = append(finishes, fin) })
		link.Submit(&e, 1, 10, func(fin float64) { finishes = append(finishes, fin) })
	})
	if _, err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(finishes[0]-11) > 1e-12 || math.Abs(finishes[1]-12) > 1e-12 {
		t.Errorf("finishes = %v, want [11 12]", finishes)
	}
}

func TestStationQueueLenAndBacklog(t *testing.T) {
	var e engine
	s := newStation("cpu")
	e.At(0, func() {
		s.Submit(&e, 3, 0, nil)
		s.Submit(&e, 3, 0, nil)
		if got := s.QueueLen(); got != 2 {
			t.Errorf("QueueLen = %d, want 2", got)
		}
		if got := s.Backlog(); math.Abs(got-6) > 1e-12 {
			t.Errorf("Backlog = %v, want 6", got)
		}
	})
	if _, err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.QueueLen(); got != 0 {
		t.Errorf("QueueLen after drain = %d, want 0", got)
	}
	if got := s.Backlog(); got != 0 {
		t.Errorf("Backlog after drain = %v, want 0", got)
	}
}

func TestStationNegativeDurationClamped(t *testing.T) {
	var e engine
	s := newStation("cpu")
	var fin float64 = -1
	e.At(2, func() {
		s.Submit(&e, -5, 0, func(f float64) { fin = f })
	})
	if _, err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fin != 2 {
		t.Errorf("negative-duration job finished at %v, want 2", fin)
	}
}
