package control

import "testing"

// TestBatch pins the one batch-window spelling both substrates run: what
// enables batching, the amortized cost of n jobs, and the adaptive
// ceilings a zero field resolves to.
func TestBatch(t *testing.T) {
	cases := []struct {
		name     string
		b        Batch
		enabled  bool
		cost     float64
		n        int
		want     float64 // Amortized(cost, n)
		ceilings Batch   // adaptiveCeilings()
	}{
		{"zero", Batch{}, false, 1e9, 5, 2e9,
			Batch{MaxSize: DefaultAdaptiveBatchSize, MaxDelaySec: DefaultAdaptiveDelayCapSec}},
		{"size one is unset", Batch{MaxSize: 1, MaxDelaySec: 1}, false, 0.1, 1, 0.1,
			Batch{MaxSize: DefaultAdaptiveBatchSize, MaxDelaySec: 1}},
		{"no delay", Batch{MaxSize: 8}, false, 0.1, 0, 0.1,
			Batch{MaxSize: 8, MaxDelaySec: DefaultAdaptiveDelayCapSec}},
		{"default marginal", Batch{MaxSize: 8, MaxDelaySec: 0.01}, true, 0.1, 5, 0.2,
			Batch{MaxSize: 8, MaxDelaySec: 0.01}},
		{"serial marginal", Batch{MaxSize: 4, MaxDelaySec: 0.2, Marginal: 1}, true, 1e9, 5, 5e9,
			Batch{MaxSize: 4, MaxDelaySec: 0.2, Marginal: 1}},
		{"explicit marginal", Batch{MaxSize: 2, MaxDelaySec: 0.05, Marginal: 0.5}, true, 2, 3, 4,
			Batch{MaxSize: 2, MaxDelaySec: 0.05, Marginal: 0.5}},
	}
	for _, c := range cases {
		if got := c.b.Enabled(); got != c.enabled {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.enabled)
		}
		if got := c.b.Amortized(c.cost, c.n); got != c.want {
			t.Errorf("%s: Amortized(%v, %d) = %v, want %v", c.name, c.cost, c.n, got, c.want)
		}
		if got := c.b.adaptiveCeilings(); got != c.ceilings {
			t.Errorf("%s: adaptiveCeilings() = %+v, want %+v", c.name, got, c.ceilings)
		}
		if !c.b.adaptiveCeilings().Enabled() {
			t.Errorf("%s: adaptive ceilings %+v do not batch", c.name, c.b.adaptiveCeilings())
		}
	}
}
