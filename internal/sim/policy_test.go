package sim

import (
	"testing"

	"leime/internal/control"
	"leime/internal/telemetry"
)

// policySimConfig is the congested batchSimConfig with a configurable edge
// policy and deadline.
func policySimConfig(pol control.Policy, deadlineSec float64) EventConfig {
	cfg := batchSimConfig(control.Batch{})
	cfg.EdgePolicy = pol
	cfg.DeadlineSec = deadlineSec
	return cfg
}

// TestEventSimAdaptiveWindowUnderCongestion runs the congested scenario
// with the adaptive window: it must behave like a tuned static window —
// beating unbatched service — and stay deterministic under a fixed seed.
func TestEventSimAdaptiveWindowUnderCongestion(t *testing.T) {
	base, err := RunEvents(policySimConfig(control.Policy{}, 0))
	if err != nil {
		t.Fatalf("unbatched RunEvents: %v", err)
	}
	adaptive, err := RunEvents(policySimConfig(control.Policy{AdaptiveBatch: true}, 0))
	if err != nil {
		t.Fatalf("adaptive RunEvents: %v", err)
	}
	again, err := RunEvents(policySimConfig(control.Policy{AdaptiveBatch: true}, 0))
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

// TestEventSimAdaptiveWindowTracksStaticWindow holds the self-tuning
// claim on the model clock: the adaptive window, which finds its operating
// point online, does as well as the static window (8 jobs / 50 ms) tuned
// for this workload, and deadline admission refuses no feasible work below
// the knee. Both arms run under the same 3 s backlog budget; the adaptive
// arm adds deadline admission and EDF. At the congested load the adaptive
// arm's mean TCT is 0.396 s against the static arm's 0.434 s (the
// adaptive-window and static-batch golden rows). At a third of that load
// with a 1 s deadline it is 0.295 s against 0.336 s, with no misses.
func TestEventSimAdaptiveWindowTracksStaticWindow(t *testing.T) {
	static := control.Policy{MaxBacklogSec: 3, Batch: control.Batch{MaxSize: 8, MaxDelaySec: 0.05}}
	adaptive := control.Policy{MaxBacklogSec: 3, DeadlineAdmission: true, EDF: true, AdaptiveBatch: true}
	for _, load := range []struct {
		name        string
		perSlot     float64
		deadlineSec float64
	}{
		{"congested", 3, 0},
		{"sub-knee", 1, 1},
	} {
		run := func(pol control.Policy) *EventResult {
			t.Helper()
			cfg := policySimConfig(pol, load.deadlineSec)
			for i := range cfg.Devices {
				cfg.Devices[i].Device.ArrivalMean = load.perSlot
			}
			res, err := RunEvents(cfg)
			if err != nil {
				t.Fatalf("%s RunEvents: %v", load.name, err)
			}
			if res.Generated == 0 || res.Completed != res.Generated {
				t.Fatalf("%s conservation: generated %d, completed %d", load.name, res.Generated, res.Completed)
			}
			return res
		}
		st, ad := run(static), run(adaptive)
		if ad.TCT.Mean() > 1.1*st.TCT.Mean() {
			t.Errorf("%s: adaptive mean TCT %.3fs above 1.1x the static window's %.3fs",
				load.name, ad.TCT.Mean(), st.TCT.Mean())
		}
		if load.deadlineSec > 0 && float64(ad.DeadlineMisses) > 0.01*float64(ad.Generated) {
			t.Errorf("%s: adaptive missed %d of %d deadlines, want <= 1%%", load.name, ad.DeadlineMisses, ad.Generated)
		}
		t.Logf("%s: static %.3fs, adaptive %.3fs, adaptive misses %d/%d",
			load.name, st.TCT.Mean(), ad.TCT.Mean(), ad.DeadlineMisses, ad.Generated)
	}
}

// TestEventSimCapacityBudgetFallsBack bounds the edge shares with a tight
// backlog budget: refusals must re-run tasks on their devices (Fallbacks),
// never drop them, and every task still exits through its sampled exit.
func TestEventSimCapacityBudgetFallsBack(t *testing.T) {
	res, err := RunEvents(policySimConfig(control.Policy{MaxBacklogSec: 0.1}, 0))
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
	without, err := RunEvents(policySimConfig(control.Policy{}, deadline))
	if err != nil {
		t.Fatalf("RunEvents without admission: %v", err)
	}
	with, err := RunEvents(policySimConfig(control.Policy{DeadlineAdmission: true}, deadline))
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

// TestEventSimEDFServesEarliestDeadlineFirst runs the congested scenario
// with EDF on a task deadline and checks every edge share's service order
// from the trace: whenever a job starts while another waits, the starting
// job's deadline (its task's birth plus DeadlineSec) is no later. A
// second-block job arrives at the edge after first-block jobs of younger
// tasks, so EDF must also overtake arrival order somewhere.
func TestEventSimEDFServesEarliestDeadlineFirst(t *testing.T) {
	cfg := policySimConfig(control.Policy{EDF: true}, 100)
	cfg.Tracer = telemetry.NewTracerWithBase(1<<16, 1<<40)
	if _, err := RunEvents(cfg); err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", cfg.Tracer.Dropped())
	}
	type edgeJob struct{ enq, start, born float64 }
	born := map[uint64]float64{}
	var jobs []edgeJob
	var devs []string
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Name == "task" {
			born[sp.Task] = sp.Start
		}
	}
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Name == "edge.queue" {
			jobs = append(jobs, edgeJob{enq: sp.Start, start: sp.End, born: born[sp.Task]})
			devs = append(devs, sp.Device)
		}
	}
	overtakes := 0
	for i, a := range jobs {
		for j, b := range jobs {
			if devs[i] != devs[j] || !(a.start < b.start) || !(b.enq < a.start) {
				continue
			}
			// b waited while a started.
			if a.born > b.born {
				t.Fatalf("%s: job born %v started at %v ahead of waiting job born %v", devs[i], a.born, a.start, b.born)
			}
			if b.enq < a.enq {
				overtakes++
			}
		}
	}
	if overtakes == 0 {
		t.Error("EDF never overtook arrival order; the pin is vacuous")
	}
}

// TestStationDeadlineAdmissionLearnsBias pins the wait predictor on the
// model clock. Twenty times, a job with a deadline arrives 0.1 s behind
// another at an idle station whose 1 s batch window holds both: it is
// quoted the 0.1 s backlog and waits 0.9 s, so the learned bias climbs toward its clamp of
// 2. A probe with 0.25 s to its deadline, which the raw backlog would
// admit (0.1 s wait plus 0.1 s service), is then refused as infeasible.
func TestStationDeadlineAdmissionLearnsBias(t *testing.T) {
	var eng engine
	st := newStation("edge")
	st.setPolicy(control.Policy{DeadlineAdmission: true, Batch: control.Batch{MaxSize: 8, MaxDelaySec: 1}})
	for r := 0; r < 20; r++ {
		at := 10 * float64(r)
		eng.At(at, func() { st.Submit(&eng, 0.1, 0, nil) })
		// A generous deadline: admission judges the job, and its wait
		// calibrates the predictor.
		eng.At(at+0.1, func() { st.offer(&eng, control.Job{Cost: 0.1, Deadline: at + 100}, 0, nil) })
	}
	var probe control.Verdict
	eng.At(300, func() { st.Submit(&eng, 0.1, 0, nil) })
	eng.At(300.05, func() {
		probe = st.offer(&eng, control.Job{Cost: 0.1, Deadline: 300.3}, 0, nil)
	})
	if _, err := eng.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !probe.Infeasible {
		t.Errorf("probe quoted %.3gs and admitted; the learned bias must refuse it", probe.WaitSec)
	}
	if probe.WaitSec <= 0.15 {
		t.Errorf("probe quoted %.3gs for a 0.1s backlog, want the learned bias above 1.5", probe.WaitSec)
	}
}

// TestEventSimPolicyDeterministic reruns the full self-tuning policy —
// adaptive window, backlog budget, deadline admission — and requires
// bit-identical results: the controllers run on the engine clock, so no
// wall-time can leak in.
func TestEventSimPolicyDeterministic(t *testing.T) {
	pol := control.Policy{
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
// state (delay, rate estimate, latency sample and p99) — the station adds
// scheduling, never control law.
func TestStationWindowReplayMatchesPureController(t *testing.T) {
	mkCfg := func() control.WindowConfig {
		return control.WindowConfig{MaxSize: 8, DelayCapSec: 0.05, TargetP99Sec: 0.2}
	}
	var eng engine
	st := newStation("edge")
	st.setPolicy(control.Policy{
		AdaptiveBatch: true,
		Batch:         control.Batch{MaxSize: 8, MaxDelaySec: 0.05},
		TargetP99Sec:  0.2,
	})
	w1 := st.q.Window()

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
	if *w1 != *w2 {
		t.Errorf("window state diverges: station delay %v, pure replay delay %v", w1.DelaySec(), w2.DelaySec())
	}
}
