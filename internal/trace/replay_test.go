package trace

import (
	"encoding/json"
	"testing"
)

func TestRecordedReplaysExactly(t *testing.T) {
	r, err := NewRecorded([]int{3, 1, 4, 1, 5})
	if err != nil {
		t.Fatalf("NewRecorded: %v", err)
	}
	want := []int{3, 1, 4, 1, 5, 3, 1} // cycles
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Fatalf("slot %d: got %d, want %d", i, got, w)
		}
	}
	r.Reset()
	if got := r.Next(); got != 3 {
		t.Errorf("after Reset: got %d, want 3", got)
	}
	if got, want := r.Mean(), 14.0/5; got != want {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	if r.Len() != 5 {
		t.Errorf("Len() = %d", r.Len())
	}
}

func TestRecordedValidation(t *testing.T) {
	if _, err := NewRecorded(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewRecorded([]int{1, -2}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestRecordFromProcess(t *testing.T) {
	p, err := NewPoisson(7, 3)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	r, err := record(p, 500)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if r.Len() != 500 {
		t.Fatalf("Len() = %d", r.Len())
	}
	if m := r.Mean(); m < 5 || m > 9 {
		t.Errorf("recorded mean %v far from rate 7", m)
	}
	// Two replays agree even though the source was stochastic.
	a := r.Counts()
	r.Reset()
	for i := 0; i < r.Len(); i++ {
		if got := r.Next(); got != a[i] {
			t.Fatalf("replay diverged at slot %d", i)
		}
	}
	if _, err := record(p, 0); err == nil {
		t.Error("zero-length record accepted")
	}
}

func TestRecordedCountsIsACopy(t *testing.T) {
	r, _ := NewRecorded([]int{1, 2, 3})
	c := r.Counts()
	c[0] = 99
	if r.Next() == 99 {
		t.Error("Counts() exposed internal state")
	}
}

func TestRecordedJSONRoundTrip(t *testing.T) {
	orig, _ := NewRecorded([]int{2, 7, 1, 8})
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if string(data) != "[2,7,1,8]" {
		t.Errorf("JSON = %s", data)
	}
	var loaded Recorded
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for i := 0; i < 4; i++ {
		if a, b := orig.Next(), loaded.Next(); a != b {
			t.Fatalf("slot %d differs after round trip: %d vs %d", i, a, b)
		}
	}
	var bad Recorded
	if err := json.Unmarshal([]byte(`[1,-1]`), &bad); err == nil {
		t.Error("negative count accepted through JSON")
	}
	if err := json.Unmarshal([]byte(`"x"`), &bad); err == nil {
		t.Error("non-array JSON accepted")
	}
}
