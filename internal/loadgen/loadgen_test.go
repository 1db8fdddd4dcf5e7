package loadgen

import (
	"context"
	"reflect"
	"testing"
	"time"

	"leime/internal/offload"
	"leime/internal/runtime"
)

// testModel mirrors the runtime package's test model: small blocks so
// scaled runs finish fast.
func testModel() offload.ModelParams {
	return offload.ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
}

// TestScheduleDeterministic pins the harness's reproducibility contract:
// equal configurations (including seed) expand to identical schedules, and
// a different seed actually moves the arrivals.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{
		EdgeAddr: "unused:0",
		Devices:  3,
		Rate:     20,
		Duration: 2 * time.Second,
		Seed:     42,
		Model:    testModel(),
	}
	a, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	b, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule (rerun): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule for a 3-device 20/s 2s run")
	}
	cfg.Seed = 43
	c, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule (new seed): %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("changing the seed did not change the schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted: arrival %d at %v after %v", i, a[i].At, a[i-1].At)
		}
	}
}

// TestScheduleConstantSpacing checks the constant arrival process spaces
// each device's tasks exactly 1/Rate apart.
func TestScheduleConstantSpacing(t *testing.T) {
	cfg := Config{
		EdgeAddr: "unused:0",
		Devices:  1,
		Rate:     10,
		Arrival:  "constant",
		Duration: time.Second,
		Model:    testModel(),
	}
	sched, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(sched) != 9 {
		t.Fatalf("constant 10/s over 1s = 9 arrivals (0.1s..0.9s), got %d", len(sched))
	}
	for i, a := range sched {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if diff := a.At - want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("arrival %d at %v, want %v", i, a.At, want)
		}
	}
}

// TestScheduleValidates checks bad configurations are rejected.
func TestScheduleValidates(t *testing.T) {
	bad := []Config{
		{Devices: 1, Rate: 5, Duration: time.Second, Model: testModel()},                                    // no addr
		{EdgeAddr: "x:0", Devices: 1, Rate: -1, Duration: time.Second, Model: testModel()},                  // bad rate
		{EdgeAddr: "x:0", Devices: 1, Rate: 5, Arrival: "burst", Duration: time.Second, Model: testModel()}, // bad process
		{EdgeAddr: "x:0", Devices: 1, Rate: 5, Duration: time.Second},                                       // bad model
	}
	for i, cfg := range bad {
		if _, err := Schedule(cfg); err == nil {
			t.Errorf("config %d: Schedule accepted an invalid configuration", i)
		}
	}
}

// TestScheduleDeadlineSampling checks the per-task deadline budgets: zero
// without a base, jittered within ±25% of the base when one is set, and the
// per-tenant list overriding the global base by device index.
func TestScheduleDeadlineSampling(t *testing.T) {
	cfg := Config{
		EdgeAddr: "unused:0",
		Devices:  2,
		Rate:     20,
		Duration: 2 * time.Second,
		Seed:     42,
		Model:    testModel(),
	}
	plain, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for i, a := range plain {
		if a.Deadline != 0 {
			t.Fatalf("arrival %d carries deadline %v without a configured base", i, a.Deadline)
		}
	}

	cfg.DeadlineSec = 2
	sched, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule with deadlines: %v", err)
	}
	again, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule rerun: %v", err)
	}
	if !reflect.DeepEqual(sched, again) {
		t.Fatal("deadline sampling broke schedule determinism")
	}
	distinct := map[time.Duration]bool{}
	for i, a := range sched {
		lo, hi := 1500*time.Millisecond, 2500*time.Millisecond
		if a.Deadline < lo || a.Deadline > hi {
			t.Fatalf("arrival %d deadline %v outside ±25%% of the 2s base", i, a.Deadline)
		}
		distinct[a.Deadline] = true
	}
	if len(distinct) < 2 {
		t.Error("deadline jitter produced a single budget; EDF has nothing to sort")
	}

	cfg.TenantDeadlineSec = []float64{1, 4}
	tiered, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule with tenant deadlines: %v", err)
	}
	for i, a := range tiered {
		base := time.Duration(cfg.TenantDeadlineSec[a.Device%2] * float64(time.Second))
		lo, hi := base*3/4, base*5/4
		if a.Deadline < lo || a.Deadline > hi {
			t.Fatalf("arrival %d (device %d) deadline %v outside [%v, %v]", i, a.Device, a.Deadline, lo, hi)
		}
	}
}

// TestAbsoluteDeadlineAnchorsAtArrival pins the reroute-budget fix: the
// task's wall-clock deadline derives once from its scheduled arrival, so a
// retry context carries the remaining budget rather than a fresh timeout.
func TestAbsoluteDeadlineAnchorsAtArrival(t *testing.T) {
	start := time.Unix(1000, 0)
	a := Arrival{At: 3 * time.Second, Deadline: 2 * time.Second}
	want := start.Add(5 * time.Second)
	if got := absoluteDeadline(start, a, time.Minute); !got.Equal(want) {
		t.Errorf("sampled budget: deadline %v, want %v (Timeout must not override it)", got, want)
	}
	a.Deadline = 0
	want = start.Add(3*time.Second + time.Minute)
	if got := absoluteDeadline(start, a, time.Minute); !got.Equal(want) {
		t.Errorf("timeout fallback: deadline %v, want %v", got, want)
	}
	if got := absoluteDeadline(start, a, 0); !got.IsZero() {
		t.Errorf("no budget anywhere: deadline %v, want zero time", got)
	}

	ctx, cancel := taskContext(context.Background(), want)
	defer cancel()
	if d, ok := ctx.Deadline(); !ok || !d.Equal(want) {
		t.Errorf("taskContext deadline %v (ok=%v), want %v", d, ok, want)
	}
	ctx2, cancel2 := taskContext(context.Background(), time.Time{})
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Error("zero deadline must leave the context unbounded")
	}
}

// TestRunClassifiesDeadlineSheds drives a slow edge running deadline
// admission with budgets its backlog cannot honour: doomed tasks must land
// in DeadlineSheds (admission's infeasible verdict or the elapsed context),
// never in Errors, and classification must not leak.
func TestRunClassifiesDeadlineSheds(t *testing.T) {
	_, addrs := startTestbed(t, 1, runtime.EdgeConfig{
		FLOPS:  2e9,
		Policy: runtime.ControlPolicy{DeadlineAdmission: true, EDF: true},
	})
	res, err := Run(context.Background(), Config{
		EdgeAddr:    addrs[0],
		Devices:     2,
		Rate:        200,
		Duration:    time.Second,
		Seed:        7,
		Model:       testModel(),
		DeadlineSec: 0.2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DeadlineSheds == 0 {
		t.Error("no deadline sheds despite 400/s offered with 0.2s budgets against a 2 GFLOPS edge")
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d; infeasible tasks must classify as deadline sheds", res.Errors)
	}
	if got := res.Completed + res.Rejected + res.DeadlineSheds + res.Errors; got != res.Generated {
		t.Errorf("classification leak: %d classified vs %d generated", got, res.Generated)
	}
}

// startTestbed brings up an in-process cloud and n edges built from edgeCfg
// for live runs, closed when the test ends, and returns the edges'
// addresses in start order.
func startTestbed(t *testing.T, n int, edgeCfg runtime.EdgeConfig) (*runtime.Testbed, []string) {
	t.Helper()
	edgeCfg.Model = testModel()
	edgeCfg.TimeScale = 0.01
	edges := make([]runtime.EdgeConfig, n)
	for i := range edges {
		edges[i] = edgeCfg
	}
	tb, err := runtime.StartTestbed(runtime.CloudConfig{
		FLOPS:       2e12,
		Block3FLOPs: testModel().Mu[2],
		TimeScale:   0.01,
	}, edges)
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	t.Cleanup(tb.Close)
	addrs := make([]string, n)
	for i, e := range tb.Edges {
		addrs[i] = e.Addr()
	}
	return tb, addrs
}

// TestRunAgainstTestbed drives a live in-process edge and checks the
// report's accounting: every scheduled task is classified exactly once and
// the latency summary covers every completion.
func TestRunAgainstTestbed(t *testing.T) {
	_, addrs := startTestbed(t, 1, runtime.EdgeConfig{FLOPS: 6e10})
	res, err := Run(context.Background(), Config{
		EdgeAddr: addrs[0],
		Devices:  2,
		Rate:     20,
		Duration: time.Second,
		Seed:     7,
		Model:    testModel(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions against an unloaded edge")
	}
	if got := res.Completed + res.Rejected + res.DeadlineSheds + res.Errors; got != res.Generated {
		t.Errorf("classification leak: %d classified vs %d generated", got, res.Generated)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d, want 0 against a healthy testbed", res.Errors)
	}
	if res.Latency.Samples != res.Completed {
		t.Errorf("latency samples %d != completions %d", res.Latency.Samples, res.Completed)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 || res.Latency.Max < res.Latency.P99 {
		t.Errorf("latency summary not ordered: p50=%v p99=%v max=%v",
			res.Latency.P50, res.Latency.P99, res.Latency.Max)
	}
	if res.Exits[0]+res.Exits[1]+res.Exits[2] != res.Completed {
		t.Errorf("exit tallies %v do not sum to completions %d", res.Exits, res.Completed)
	}
}

// TestRunCountsAdmissionRejections saturates a tiny backlog budget and
// checks rejections are classified as such, not as errors.
func TestRunCountsAdmissionRejections(t *testing.T) {
	_, addrs := startTestbed(t, 1, runtime.EdgeConfig{
		FLOPS:  2e9,
		Policy: runtime.ControlPolicy{MaxBacklogSec: 0.1},
	})
	res, err := Run(context.Background(), Config{
		EdgeAddr: addrs[0],
		Devices:  2,
		Rate:     60,
		Duration: time.Second,
		Seed:     7,
		Model:    testModel(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rejected == 0 {
		t.Error("no rejections despite 120/s offered against a 2 GFLOPS edge with a 0.1s budget")
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d; rejections must classify as Rejected", res.Errors)
	}
}

// TestRunMultiEdgeBreakdown drives two edges at once and checks the
// per-edge breakdown: devices split across both homes, every edge serves
// work, and the per-edge tallies sum to the aggregate counters.
func TestRunMultiEdgeBreakdown(t *testing.T) {
	_, addrs := startTestbed(t, 2, runtime.EdgeConfig{FLOPS: 6e10})
	res, err := Run(context.Background(), Config{
		EdgeAddrs: addrs,
		Devices:   4,
		Rate:      15,
		Duration:  time.Second,
		Seed:      7,
		Model:     testModel(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.PerEdge) != 2 {
		t.Fatalf("%d per-edge rows, want 2", len(res.PerEdge))
	}
	var comp, rej, shed, errs int
	for e, b := range res.PerEdge {
		if b.Addr != addrs[e] {
			t.Errorf("row %d addr %q, want %q", e, b.Addr, addrs[e])
		}
		if b.Completed == 0 {
			t.Errorf("edge %d completed nothing; devices never split across homes", e)
		}
		comp += b.Completed
		rej += b.Rejected
		shed += b.DeadlineSheds
		errs += b.Errors
	}
	if comp != res.Completed || rej != res.Rejected || shed != res.DeadlineSheds || errs != res.Errors {
		t.Errorf("per-edge tallies (%d/%d/%d/%d) do not sum to aggregates (%d/%d/%d/%d)",
			comp, rej, shed, errs, res.Completed, res.Rejected, res.DeadlineSheds, res.Errors)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d against a healthy fleet", res.Errors)
	}
}

// TestRunReroutesOnEdgeKill kills one of two edges mid-run: its devices
// must reroute to the survivor and classification must not leak.
func TestRunReroutesOnEdgeKill(t *testing.T) {
	tb, addrs := startTestbed(t, 2, runtime.EdgeConfig{FLOPS: 6e10})
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(300 * time.Millisecond)
		_ = tb.Edges[0].Close()
	}()
	res, err := Run(context.Background(), Config{
		EdgeAddrs: addrs,
		Devices:   4,
		Rate:      15,
		Duration:  time.Second,
		Seed:      7,
		Model:     testModel(),
	})
	<-killed
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rerouted == 0 {
		t.Error("no reroutes despite killing a home edge mid-run")
	}
	if got := res.Completed + res.Rejected + res.DeadlineSheds + res.Errors; got != res.Generated {
		t.Errorf("classification leak: %d classified vs %d generated", got, res.Generated)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d; kills must reroute, not surface transport faults", res.Errors)
	}
	if res.PerEdge[1].Completed <= res.PerEdge[0].Completed {
		t.Errorf("survivor completed %d <= killed edge's %d; reroute never shifted load",
			res.PerEdge[1].Completed, res.PerEdge[0].Completed)
	}
}

// TestSweepOrdersPoints checks a sweep reports one point per rate in order.
func TestSweepOrdersPoints(t *testing.T) {
	_, addrs := startTestbed(t, 1, runtime.EdgeConfig{FLOPS: 6e10})
	sweep, err := Sweep(context.Background(), Config{
		EdgeAddr: addrs[0],
		Devices:  1,
		Duration: 500 * time.Millisecond,
		Seed:     7,
		Model:    testModel(),
	}, []float64{10, 30})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("%d points, want 2", len(sweep.Points))
	}
	if sweep.Points[0].OfferedRate != 10 || sweep.Points[1].OfferedRate != 30 {
		t.Errorf("offered rates %v, %v; want 10, 30",
			sweep.Points[0].OfferedRate, sweep.Points[1].OfferedRate)
	}
}
