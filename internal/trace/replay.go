package trace

import (
	"encoding/json"
	"fmt"
)

// Recorded is a replayable arrival trace: a fixed sequence of per-slot
// counts, cycling when exhausted. Recording a stochastic process and
// replaying it lets experiments compare policies on *identical* arrivals and
// makes runs portable across machines and languages.
type Recorded struct {
	counts []int
	idx    int
}

// NewRecorded builds a replayable process from per-slot counts.
func NewRecorded(counts []int) (*Recorded, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("trace: recorded trace needs at least one slot")
	}
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("trace: slot %d has negative count %d", i, c)
		}
	}
	out := make([]int, len(counts))
	copy(out, counts)
	return &Recorded{counts: out}, nil
}

// record draws n slots from any process into a replayable trace.
func record(p Process, n int) (*Recorded, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: record length %d must be positive", n)
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = p.Next()
	}
	return NewRecorded(counts)
}

// Next replays the next slot, cycling at the end.
func (r *Recorded) Next() int {
	v := r.counts[r.idx]
	r.idx = (r.idx + 1) % len(r.counts)
	return v
}

// Mean returns the mean per-slot count over one cycle.
func (r *Recorded) Mean() float64 {
	var sum float64
	for _, c := range r.counts {
		sum += float64(c)
	}
	return sum / float64(len(r.counts))
}

// Len returns the recorded cycle length.
func (r *Recorded) Len() int { return len(r.counts) }

// Counts returns a copy of the recorded per-slot counts.
func (r *Recorded) Counts() []int {
	out := make([]int, len(r.counts))
	copy(out, r.counts)
	return out
}

// Reset rewinds the replay to the first slot.
func (r *Recorded) Reset() { r.idx = 0 }

// MarshalJSON serializes the trace as a plain JSON array of counts.
func (r *Recorded) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.counts)
}

// UnmarshalJSON loads a trace from a JSON array of counts.
func (r *Recorded) UnmarshalJSON(data []byte) error {
	var counts []int
	if err := json.Unmarshal(data, &counts); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	loaded, err := NewRecorded(counts)
	if err != nil {
		return err
	}
	*r = *loaded
	return nil
}

var _ Process = (*Recorded)(nil)
