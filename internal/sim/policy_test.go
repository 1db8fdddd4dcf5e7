package sim

import (
	"testing"

	"leime/internal/control"
)

// policySimConfig is the congested batchSimConfig with a configurable edge
// policy and deadline.
func policySimConfig(pol Policy, deadlineSec float64) EventConfig {
	cfg := batchSimConfig(control.Batch{})
	cfg.EdgePolicy = pol
	cfg.DeadlineSec = deadlineSec
	return cfg
}

// TestEventSimAdaptiveWindowUnderCongestion runs the congested scenario
// with the adaptive window: it must behave like a tuned static window —
// beating unbatched service — and stay deterministic under a fixed seed.
func TestEventSimAdaptiveWindowUnderCongestion(t *testing.T) {
	base, err := RunEvents(policySimConfig(Policy{}, 0))
	if err != nil {
		t.Fatalf("unbatched RunEvents: %v", err)
	}
	adaptive, err := RunEvents(policySimConfig(Policy{AdaptiveBatch: true}, 0))
	if err != nil {
		t.Fatalf("adaptive RunEvents: %v", err)
	}
	again, err := RunEvents(policySimConfig(Policy{AdaptiveBatch: true}, 0))
	if err != nil {
		t.Fatalf("adaptive rerun: %v", err)
	}
	if adaptive.Completed != adaptive.Generated || adaptive.Generated != base.Generated {
		t.Fatalf("conservation: generated %d/%d, completed %d",
			adaptive.Generated, base.Generated, adaptive.Completed)
	}
	if adaptive.TCT.Mean() != again.TCT.Mean() || adaptive.ExitCounts != again.ExitCounts {
		t.Error("adaptive run not deterministic under a fixed seed")
	}
	if adaptive.TCT.Mean() >= base.TCT.Mean() {
		t.Errorf("adaptive window did not help under congestion: mean TCT %v (adaptive) vs %v (unbatched)",
			adaptive.TCT.Mean(), base.TCT.Mean())
	}
	t.Logf("mean TCT: unbatched %.3fs, adaptive %.3fs", base.TCT.Mean(), adaptive.TCT.Mean())
}

// TestEventSimCapacityBudgetFallsBack bounds the edge shares with a tight
// backlog budget: refusals must re-run tasks on their devices (Fallbacks),
// never drop them, and every task still exits through its sampled exit.
func TestEventSimCapacityBudgetFallsBack(t *testing.T) {
	res, err := RunEvents(policySimConfig(Policy{MaxBacklogSec: 0.1}, 0))
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.Completed != res.Generated {
		t.Fatalf("conservation: generated %d, completed %d", res.Generated, res.Completed)
	}
	if res.Fallbacks == 0 {
		t.Error("backlog budget never tripped; test configuration too lenient")
	}
	if res.Sheds != 0 {
		t.Errorf("capacity refusals shed %d tasks; they must degrade to local instead", res.Sheds)
	}
	if sum := res.ExitCounts[0] + res.ExitCounts[1] + res.ExitCounts[2]; sum != res.Completed {
		t.Errorf("exit counts %v sum to %d, want %d: fallbacks must still exit", res.ExitCounts, sum, res.Completed)
	}
}

// TestEventSimDeadlineAdmissionSheds gives tasks a deadline the congested
// edge cannot meet: deadline admission must shed doomed work before it
// burns edge compute, so the edge serves strictly less than without
// admission while conservation still holds.
func TestEventSimDeadlineAdmissionSheds(t *testing.T) {
	const deadline = 1.5
	without, err := RunEvents(policySimConfig(Policy{}, deadline))
	if err != nil {
		t.Fatalf("RunEvents without admission: %v", err)
	}
	with, err := RunEvents(policySimConfig(Policy{DeadlineAdmission: true}, deadline))
	if err != nil {
		t.Fatalf("RunEvents with admission: %v", err)
	}
	if with.Completed != with.Generated {
		t.Fatalf("conservation: generated %d, completed %d", with.Generated, with.Completed)
	}
	if with.Sheds == 0 {
		t.Fatal("deadline admission never shed; test configuration too lenient")
	}
	if sum := with.ExitCounts[0] + with.ExitCounts[1] + with.ExitCounts[2]; sum != with.Completed-with.Sheds {
		t.Errorf("exit counts %v sum to %d, want Completed-Sheds = %d",
			with.ExitCounts, sum, with.Completed-with.Sheds)
	}
	edgeBusy := func(r *EventResult) float64 {
		var u float64
		for name, v := range r.Utilization {
			if len(name) > 4 && name[:4] == "edge" {
				u += v
			}
		}
		return u
	}
	if got, want := edgeBusy(with), edgeBusy(without); got >= want {
		t.Errorf("admission saved no edge compute: utilization %.3f with vs %.3f without", got, want)
	}
	t.Logf("sheds %d/%d, edge utilization %.3f (with) vs %.3f (without), misses %d vs %d",
		with.Sheds, with.Generated, edgeBusy(with), edgeBusy(without),
		with.DeadlineMisses, without.DeadlineMisses)
}

// TestEventSimPolicyDeterministic reruns the full self-tuning policy —
// adaptive window, backlog budget, deadline admission — and requires
// bit-identical results: the controllers run on the engine clock, so no
// wall-time can leak in.
func TestEventSimPolicyDeterministic(t *testing.T) {
	pol := Policy{
		MaxBacklogSec:     0.5,
		DeadlineAdmission: true,
		AdaptiveBatch:     true,
		TargetP99Sec:      1,
	}
	a, err := RunEvents(policySimConfig(pol, 2))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunEvents(policySimConfig(pol, 2))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.TCT.Mean() != b.TCT.Mean() || a.ExitCounts != b.ExitCounts ||
		a.Sheds != b.Sheds || a.Fallbacks != b.Fallbacks || a.DeadlineMisses != b.DeadlineMisses {
		t.Errorf("same-seed policy runs diverge: TCT %v/%v sheds %d/%d fallbacks %d/%d",
			a.TCT.Mean(), b.TCT.Mean(), a.Sheds, b.Sheds, a.Fallbacks, b.Fallbacks)
	}
}

// TestStationWindowReplayMatchesPureController is the differential pin
// between the simulator's adaptive station and the pure controller: every
// observation the station feeds its window is re-fed, in the same order, to
// a second window configured identically. Both must land on bit-identical
// delay, rate and p99 state — the station adds scheduling, never control
// law.
func TestStationWindowReplayMatchesPureController(t *testing.T) {
	mkCfg := func() control.WindowConfig {
		return control.WindowConfig{MaxSize: 8, DelayCapSec: 0.05, TargetP99Sec: 0.2}
	}
	w1 := control.NewWindow(mkCfg())
	var eng engine
	st := newStation("edge")
	st.SetWindow(w1, 8)

	// feed logs the exact observation sequence the station produces: an
	// arrival at each submission instant, a latency at each completion.
	type obs struct {
		kind string
		v    float64
	}
	var feed []obs
	const (
		n   = 120
		gap = 0.01  // 100 arrivals/sec: dense enough for the window to open
		dur = 0.004 // service class
	)
	for i := 0; i < n; i++ {
		at := float64(i) * gap
		eng.At(at, func() {
			feed = append(feed, obs{"arrive", at})
			st.SubmitObserved(&eng, dur, 0, func(enq, _, fin float64) {
				feed = append(feed, obs{"lat", fin - enq})
			})
		})
	}
	if _, err := eng.Run(10000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.served != n {
		t.Fatalf("served %d jobs, want %d", st.served, n)
	}
	if w1.DelaySec() <= 0 {
		t.Fatal("dense arrivals left the adaptive window shut; pin is vacuous")
	}

	w2 := control.NewWindow(mkCfg())
	for _, o := range feed {
		if o.kind == "arrive" {
			w2.ObserveArrival(o.v)
		} else {
			w2.ObserveLatency(o.v)
		}
	}
	if w1.DelaySec() != w2.DelaySec() {
		t.Errorf("delay diverges: station %v vs pure replay %v", w1.DelaySec(), w2.DelaySec())
	}
	if w1.RateEstimate() != w2.RateEstimate() {
		t.Errorf("rate estimate diverges: station %v vs pure replay %v", w1.RateEstimate(), w2.RateEstimate())
	}
	if w1.P99Sec() != w2.P99Sec() {
		t.Errorf("p99 diverges: station %v vs pure replay %v", w1.P99Sec(), w2.P99Sec())
	}
}
