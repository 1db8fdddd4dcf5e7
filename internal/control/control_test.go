package control

import (
	"math"
	"testing"
)

func TestPredictorLearnsBias(t *testing.T) {
	p := NewPredictor(0.5)
	if got := p.Predict(2); got != 2 {
		t.Fatalf("initial bias must be 1: Predict(2) = %v", got)
	}
	// Observed waits consistently 1.5x the prediction: bias converges up.
	for i := 0; i < 50; i++ {
		p.Observe(1.0, 1.5)
	}
	if b := p.bias; math.Abs(b-1.5) > 0.01 {
		t.Fatalf("bias = %v, want ~1.5", b)
	}
	// Near-zero predictions must not poison the bias.
	p.Observe(1e-9, 100)
	if b := p.bias; math.Abs(b-1.5) > 0.01 {
		t.Fatalf("bias moved on a near-zero prediction: %v", b)
	}
	// Outlier ratios are clamped, and the bias itself never exceeds 2.
	for i := 0; i < 200; i++ {
		p.Observe(1.0, 1000)
	}
	if b := p.bias; b > 2 {
		t.Fatalf("bias %v escaped the [0.5, 2] clamp", b)
	}
}

// TestWindowTracksFillTime pins the control law: under a dense arrival
// stream the window converges to min(cap, fill time), and the trajectory is
// bit-identical to an independent replay of the same law over the same
// observations (the pure half of the sim/runtime differential).
func TestWindowTracksFillTime(t *testing.T) {
	cfg := WindowConfig{MaxSize: 8, DelayCapSec: 0.05, Gain: 0.2, RateGain: 0.1}
	w := NewWindow(cfg)

	// Replay state mirroring the documented law.
	var rate, delay float64
	seen := false
	var last float64
	step := func(now float64) {
		if seen {
			gap := now - last
			if gap < 1e-9 {
				gap = 1e-9
			}
			rate += 0.1 * (1/gap - rate)
		}
		seen = true
		last = now
		target := 0.0
		if rate > 0 {
			target = (float64(cfg.MaxSize) - 1) / rate
			if target > cfg.DelayCapSec {
				target = cfg.DelayCapSec
			}
			if rate*cfg.DelayCapSec < batchViability {
				target = 0
			}
		}
		delay += 0.2 * (target - delay)
		if d := delay - target; d < 1e-9 && d > -1e-9 {
			delay = target
		}
	}

	// 500 arrivals at 1ms gaps: rate -> 1000/s, fill = 7/1000 = 7ms < cap.
	for i := 0; i < 500; i++ {
		now := float64(i) * 1e-3
		w.ObserveArrival(now)
		step(now)
		if got := w.DelaySec(); got != delay {
			t.Fatalf("arrival %d: window %v diverged from pure replay %v", i, got, delay)
		}
	}
	wantFillSec := 7.0 / 1000
	if got := w.DelaySec(); math.Abs(got-wantFillSec) > 0.1*wantFillSec {
		t.Fatalf("dense stream: window %v, want ~fill time %v", got, wantFillSec)
	}

	// 400 arrivals at 0.1ms gaps: rate -> 10000/s, fill 0.7ms; the window
	// tracks the new point downward.
	for i := 0; i < 400; i++ {
		now := 0.5 + float64(i)*1e-4
		w.ObserveArrival(now)
		step(now)
	}
	wantFillSec = 7.0 / 10000
	if got := w.DelaySec(); math.Abs(got-wantFillSec) > 0.15*wantFillSec {
		t.Fatalf("denser stream: window %v, want ~fill time %v", got, wantFillSec)
	}
}

func TestWindowSaturationRidesTheCap(t *testing.T) {
	// Pick a cap below the fill time so the cap binds: at ~1000 arrivals/s
	// the fill time is 7ms, above the 5ms cap, so the window must converge
	// to the cap itself — the statically tuned optimum.
	cfg := WindowConfig{MaxSize: 8, DelayCapSec: 0.005, Gain: 0.2, RateGain: 0.1}
	w := NewWindow(cfg)
	for i := 0; i < 600; i++ {
		w.ObserveArrival(float64(i) * 1e-3)
	}
	if got := w.DelaySec(); math.Abs(got-cfg.DelayCapSec) > 0.1*cfg.DelayCapSec {
		t.Fatalf("saturated stream: window %v, want ~cap %v", got, cfg.DelayCapSec)
	}
}

func TestWindowSparseArrivalsDisableBatching(t *testing.T) {
	w := NewWindow(WindowConfig{MaxSize: 8, DelayCapSec: 0.05})
	// 1 task/s: rate*cap = 0.05 << 2, the window must stay closed.
	for i := 0; i < 100; i++ {
		w.ObserveArrival(float64(i))
	}
	if got := w.DelaySec(); got != 0 {
		t.Fatalf("sparse stream: window %v, want 0", got)
	}
}

func TestWindowP99GuardShrinksTheWindow(t *testing.T) {
	cfg := WindowConfig{MaxSize: 8, DelayCapSec: 0.05, TargetP99Sec: 0.01, Gain: 0.2, RateGain: 0.1}
	w := NewWindow(cfg)
	for i := 0; i < 300; i++ {
		w.ObserveArrival(float64(i) * 1e-3)
	}
	open := w.DelaySec()
	if open <= 0 {
		t.Fatalf("window failed to open under load")
	}
	// Latency tail far above target: the guard must halve the window away.
	for i := 0; i < windowLatN+p99RecomputeEvery; i++ {
		w.ObserveLatency(0.5)
	}
	if got := w.p99Sec; got < 0.4 {
		t.Fatalf("p99 cache %v did not absorb the tail", got)
	}
	for i := 0; i < 200; i++ {
		w.ObserveArrival(0.3 + float64(i)*1e-3)
	}
	if got := w.DelaySec(); got > open/4 {
		t.Fatalf("p99 guard left window at %v (was %v)", got, open)
	}
}

func degradeFixture() ([]TenantDemand, [3]float64) {
	tenants := []TenantDemand{
		// Confident early exits: demoting to exit 1 is cheap in accuracy.
		{ID: "a", ArrivalRate: 100, BlockFLOPs: [3]float64{2e8, 8e8, 1e9}, Sigma: [3]float64{0.8, 0.95, 1}},
		// Deep-exit dependent: demotion is expensive.
		{ID: "b", ArrivalRate: 100, BlockFLOPs: [3]float64{2e8, 8e8, 1e9}, Sigma: [3]float64{0.1, 0.5, 1}},
		// Light load, middling profile.
		{ID: "c", ArrivalRate: 20, BlockFLOPs: [3]float64{2e8, 8e8, 1e9}, Sigma: [3]float64{0.4, 0.8, 1}},
	}
	return tenants, [3]float64{0.80, 0.90, 0.94}
}

// bruteForcePlan exhaustively maximizes aggregate accuracy over all cap
// assignments that fit the budget (or the all-1 plan when nothing fits).
func bruteForcePlan(tenants []TenantDemand, accuracy [3]float64, budgetFLOPS float64) []int {
	n := len(tenants)
	best := make([]int, n)
	for i := range best {
		best[i] = 1
	}
	bestAcc := -1.0
	caps := make([]int, n)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			if demandFLOPS(tenants, caps) > budgetFLOPS {
				return
			}
			if acc := aggregateAccuracy(tenants, caps, accuracy); acc > bestAcc {
				bestAcc = acc
				copy(best, caps)
			}
			return
		}
		for c := 1; c <= 3; c++ {
			caps[i] = c
			walk(i + 1)
		}
	}
	walk(0)
	if bestAcc < 0 {
		return best // infeasible: all-1 fallback, matching Plan
	}
	return best
}

func TestPlanMatchesBruteForceOnSeparatedRatios(t *testing.T) {
	tenants, acc := degradeFixture()
	// Full demand: 100*(2e8+0.2*8e8) + 100*(2e8+0.9*8e8) + 20*(2e8+0.6*8e8)
	//            = 36e9 + 92e9 + 13.6e9 = 141.6e9 FLOPS.
	full := demandFLOPS(tenants, nil)
	if math.Abs(full-141.6e9) > 1e6 {
		t.Fatalf("fixture demand = %v, want 141.6e9", full)
	}
	for _, budgetFLOPS := range []float64{150e9, 120e9, 80e9, 40e9, 10e9} {
		got := Plan(tenants, acc, budgetFLOPS)
		want := bruteForcePlan(tenants, acc, budgetFLOPS)
		gotAcc := aggregateAccuracy(tenants, got, acc)
		wantAcc := aggregateAccuracy(tenants, want, acc)
		if demandFLOPS(tenants, got) > budgetFLOPS && demandFLOPS(tenants, want) <= budgetFLOPS {
			t.Fatalf("budget %g: plan %v infeasible while %v fits", budgetFLOPS, got, want)
		}
		if math.Abs(gotAcc-wantAcc) > 1e-12 {
			t.Fatalf("budget %g: plan %v acc %.6f, brute force %v acc %.6f",
				budgetFLOPS, got, gotAcc, want, wantAcc)
		}
	}
}

func TestPlanDemotesCheapestAccuracyFirst(t *testing.T) {
	tenants, acc := degradeFixture()
	// Budget forces one demotion's worth of relief. Tenant a (confident
	// early exits, loss-per-FLOPS smallest) must go first; tenant b keeps
	// its depth.
	caps := Plan(tenants, acc, 130e9)
	if caps[0] != 1 || caps[1] != 3 {
		t.Fatalf("caps = %v: want tenant a demoted, tenant b kept", caps)
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	tenants, acc := degradeFixture()
	first := Plan(tenants, acc, 80e9)
	for i := 0; i < 10; i++ {
		if got := Plan(tenants, acc, 80e9); len(got) != len(first) {
			t.Fatalf("plan length changed")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: plan %v != first %v", i, got, first)
				}
			}
		}
	}
}

func TestBlindPlanRelievesNothing(t *testing.T) {
	tenants, _ := degradeFixture()
	full := demandFLOPS(tenants, nil)
	caps := BlindPlan(tenants, full/2)
	for i, c := range caps {
		if c != 2 {
			t.Fatalf("overloaded blind plan capped tenant %d to %d, want 2", i, c)
		}
	}
	// The strawman property: uniform 3->2 leaves edge demand unchanged.
	if got := demandFLOPS(tenants, caps); got != full {
		t.Fatalf("blind plan changed edge demand %v -> %v; 3->2 frees no edge compute", full, got)
	}
	// Below budget it does nothing at all.
	for _, c := range BlindPlan(tenants, full*2) {
		if c != 3 {
			t.Fatalf("unloaded blind plan must keep full depth")
		}
	}
}

func TestAggregateAccuracyOrdering(t *testing.T) {
	tenants, acc := degradeFixture()
	full := aggregateAccuracy(tenants, []int{3, 3, 3}, acc)
	blind := aggregateAccuracy(tenants, []int{2, 2, 2}, acc)
	floor := aggregateAccuracy(tenants, []int{1, 1, 1}, acc)
	if !(full > blind && blind > floor) {
		t.Fatalf("accuracy ordering violated: full %v blind %v floor %v", full, blind, floor)
	}
}
