package runtime

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// testModel is an ME-Inception-v3-like deployment with compute scaled so a
// compressed-time testbed run stays fast.
func testModel() offload.ModelParams {
	return offload.ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
}

const testScale Scale = 0.01

// testCloudConfig is the cloud of every runtime testbed.
func testCloudConfig() CloudConfig {
	return CloudConfig{FLOPS: 2e12, Block3FLOPs: testModel().Mu[2], TimeScale: testScale}
}

// startTestbed brings up the test cloud and one edge, closed when the test
// ends.
func startTestbed(t *testing.T) *Edge {
	t.Helper()
	tb, err := StartTestbed(testCloudConfig(), []EdgeConfig{{
		FLOPS:     6e10,
		Model:     testModel(),
		CloudLink: netem.Link{BandwidthBps: 5e7, Latency: 30 * time.Millisecond},
		TimeScale: testScale,
	}})
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	t.Cleanup(tb.Close)
	return tb.Edges[0]
}

func testDeviceConfig(edgeAddr, id string) DeviceConfig {
	return DeviceConfig{
		ID:          id,
		FLOPS:       1.2e9,
		Model:       testModel(),
		EdgeAddr:    edgeAddr,
		Uplink:      netem.Link{BandwidthBps: 1e7, Latency: 20 * time.Millisecond},
		ArrivalMean: 5,
		TauSec:      1,
		V:           1e4,
		Slots:       30,
		WarmupSlots: 5,
		TimeScale:   testScale,
		Seed:        11,
	}
}

func TestExecutorFIFOAndRate(t *testing.T) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	if got := e.rate(); got != 1e9 {
		t.Errorf("Rate() = %v", got)
	}
	start := time.Now()
	if err := e.Do(5e7); err != nil { // 50 ms at 1 GFLOPS
		t.Fatalf("Do: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("job finished too fast: %v", elapsed)
	}
	if err := e.setRate(1e10); err != nil {
		t.Fatalf("SetRate: %v", err)
	}
	start = time.Now()
	if err := e.Do(5e7); err != nil { // 5 ms at 10 GFLOPS
		t.Fatalf("Do: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("job did not speed up after SetRate: %v", elapsed)
	}
}

func TestExecutorQueuesConcurrentJobs(t *testing.T) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Do(2e7); err != nil { // 20 ms each
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	// Four 20 ms jobs on one server must take ~80 ms, not ~20 ms.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("jobs ran in parallel on a single server: %v", elapsed)
	}
}

func TestExecutorCloseRejectsNewWork(t *testing.T) {
	e, err := NewExecutor(1e9, 1)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	e.Close()
	if err := e.Do(1); err == nil {
		t.Error("Do after Close succeeded")
	}
	e.Close() // idempotent
}

func TestExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(0, 1); err == nil {
		t.Error("zero-rate executor accepted")
	}
	e, _ := NewExecutor(1e9, 1)
	defer e.Close()
	if err := e.setRate(-1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestScaleHelpers(t *testing.T) {
	s := Scale(0.5)
	if got := s.scaled(time.Second); got != 500*time.Millisecond {
		t.Errorf("D = %v", got)
	}
	if got := s.Seconds(2); got != time.Second {
		t.Errorf("Seconds = %v", got)
	}
	if got := Scale(0).scaled(time.Second); got != time.Second {
		t.Errorf("zero scale should pass through, got %v", got)
	}
}

func TestScaleLink(t *testing.T) {
	l := netem.Link{BandwidthBps: 1e7, Latency: 100 * time.Millisecond, Jitter: 10 * time.Millisecond}
	scaled := scaleLink(l, 0.1)
	if scaled.BandwidthBps != 1e8 {
		t.Errorf("bandwidth = %v, want 1e8", scaled.BandwidthBps)
	}
	if scaled.Latency != 10*time.Millisecond {
		t.Errorf("latency = %v", scaled.Latency)
	}
	if same := scaleLink(l, 1); same != l {
		t.Errorf("scale 1 should be identity")
	}
}

func TestLinkShaperZeroLinkIsUnshaped(t *testing.T) {
	if s, err := linkShaper(netem.Link{}, 0.1, 1); s != nil || err != nil {
		t.Errorf("zero link: shaper %v, err %v; want nil, nil", s, err)
	}
	if s, err := linkShaper(netem.Link{Latency: time.Millisecond}, 0.1, 1); s == nil || err != nil {
		t.Errorf("1 ms link: shaper %v, err %v; want a shaper", s, err)
	}
	if _, err := linkShaper(netem.Link{BandwidthBps: -1}, 1, 1); err == nil {
		t.Error("invalid link accepted")
	}
}

func TestEndToEndSingleDevice(t *testing.T) {
	edge := startTestbed(t)
	stats, err := RunDevice(testDeviceConfig(edge.Addr(), "pi-1"))
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if stats.Completed != stats.Generated {
		t.Errorf("completed %d != generated %d", stats.Completed, stats.Generated)
	}
	if stats.Errors != 0 {
		t.Errorf("%d task errors", stats.Errors)
	}
	if stats.TCT.Count() == 0 {
		t.Fatal("no post-warmup TCT samples")
	}
	// Physical floor: nothing completes faster than block 1 on the edge.
	if min := stats.TCT.Percentile(0); min < testModel().Mu[0]/6e10 {
		t.Errorf("min TCT %v below physical floor", min)
	}
	// Exit fractions approximate sigma.
	total := float64(stats.ExitCounts[0] + stats.ExitCounts[1] + stats.ExitCounts[2])
	sigma := testModel().Sigma
	wants := []float64{sigma[0], sigma[1] - sigma[0], 1 - sigma[1]}
	for i, want := range wants {
		got := float64(stats.ExitCounts[i]) / total
		if math.Abs(got-want) > 0.15 {
			t.Errorf("exit %d fraction %v, want ~%v", i+1, got, want)
		}
	}
}

func TestEndToEndConcurrentDevices(t *testing.T) {
	edge := startTestbed(t)
	ids := []string{"pi-1", "pi-2", "nano-1"}
	deviceFLOPS := []float64{1.2e9, 1.2e9, 9.84e9}
	var wg sync.WaitGroup
	results := make([]*DeviceStats, len(ids))
	errs := make([]error, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := testDeviceConfig(edge.Addr(), ids[i])
			cfg.FLOPS = deviceFLOPS[i]
			cfg.Seed = int64(100 + i)
			cfg.Slots = 20
			results[i], errs[i] = RunDevice(cfg)
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if errs[i] != nil {
			t.Fatalf("device %s: %v", ids[i], errs[i])
		}
		if results[i].Errors != 0 {
			t.Errorf("device %s: %d task errors", ids[i], results[i].Errors)
		}
		if results[i].Completed != results[i].Generated {
			t.Errorf("device %s: conservation violated", ids[i])
		}
	}
}

func TestEdgeRebalancesSharesOnRegistration(t *testing.T) {
	edge := startTestbed(t)
	// First registration takes the whole edge; a second identical device
	// must shrink the first device's share to about half.
	r1, err := edge.register(RegisterReq{DeviceID: "a", FLOPS: 1.2e9, ArrivalMean: 10})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	if got := r1.(RegisterResp).ShareFLOPS; math.Abs(got-6e10) > 1e7 {
		t.Errorf("single tenant share = %v, want full edge", got)
	}
	if _, err = edge.register(RegisterReq{DeviceID: "b", FLOPS: 1.2e9, ArrivalMean: 10}); err != nil {
		t.Fatalf("register b: %v", err)
	}
	r1again, err := edge.register(RegisterReq{DeviceID: "a", FLOPS: 1.2e9, ArrivalMean: 10})
	if err != nil {
		t.Fatalf("re-register a: %v", err)
	}
	if got := r1again.(RegisterResp).ShareFLOPS; math.Abs(got-3e10) > 1e9 {
		t.Errorf("share after second tenant = %v, want ~half", got)
	}
}

func TestEdgeRejectsUnknownDevice(t *testing.T) {
	edge := startTestbed(t)
	if _, err := edge.handle(context.Background(), rpc.Meta{}, FirstBlockReq{DeviceID: "ghost"}); err == nil {
		t.Error("unknown device task accepted")
	}
	if _, err := edge.handle(context.Background(), rpc.Meta{}, RegisterReq{DeviceID: ""}); err == nil {
		t.Error("empty device id accepted")
	}
	if _, err := edge.handle(context.Background(), rpc.Meta{}, "bogus"); err == nil {
		t.Error("bogus request accepted")
	}
}

func TestEdgeWithoutCloudCapsAtSecondExit(t *testing.T) {
	edge, err := StartEdge(EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     6e10,
		Model:     testModel(),
		TimeScale: testScale,
	})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	defer edge.Close()
	if _, err := edge.register(RegisterReq{DeviceID: "a", FLOPS: 1e9, ArrivalMean: 1}); err != nil {
		t.Fatalf("register: %v", err)
	}
	got, err := edge.handle(context.Background(), rpc.Meta{}, FirstBlockReq{DeviceID: "a", TaskID: 1, ExitStage: 3})
	if err != nil {
		t.Fatalf("firstBlock: %v", err)
	}
	if resp := got.(TaskResp); resp.ExitStage != 2 {
		t.Errorf("cloudless edge returned exit %d, want 2", resp.ExitStage)
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	good := testDeviceConfig("127.0.0.1:9", "x")
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*DeviceConfig){
		func(c *DeviceConfig) { c.ID = "" },
		func(c *DeviceConfig) { c.FLOPS = 0 },
		func(c *DeviceConfig) { c.EdgeAddr = "" },
		func(c *DeviceConfig) { c.TauSec = 0 },
		func(c *DeviceConfig) { c.Slots = 0 },
		func(c *DeviceConfig) { c.WarmupSlots = c.Slots },
		func(c *DeviceConfig) { c.Uplink.BandwidthBps = -1 },
	}
	for i, mutate := range cases {
		cfg := testDeviceConfig("127.0.0.1:9", "x")
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCloudValidation(t *testing.T) {
	if _, err := StartCloud(CloudConfig{Addr: "127.0.0.1:0", FLOPS: 0, Block3FLOPs: 1}); err == nil {
		t.Error("zero cloud FLOPS accepted")
	}
	if _, err := StartCloud(CloudConfig{Addr: "127.0.0.1:0", FLOPS: 1, Block3FLOPs: 0}); err == nil {
		t.Error("zero block-3 FLOPs accepted")
	}
}

func TestDeviceStageBreakdown(t *testing.T) {
	edge := startTestbed(t)
	cfg := testDeviceConfig(edge.Addr(), "stages")
	dOnly := offload.DeviceOnly()
	cfg.Policy = &dOnly
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.LocalStage.Count() == 0 || stats.RemoteStage.Count() == 0 {
		t.Fatal("stage breakdown not recorded")
	}
	// Stage sums must reconstruct the total within measurement noise.
	total := stats.TCT.Mean()
	parts := stats.LocalStage.Mean() + stats.RemoteStage.Mean()
	if diff := parts - total; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("stage means %v do not sum to TCT mean %v", parts, total)
	}
	// Under D-only, every task pays first-block compute locally.
	if stats.LocalStage.Percentile(0) <= 0 {
		t.Errorf("D-only tasks should all have local compute time, min = %v", stats.LocalStage.Percentile(0))
	}
}

func TestHeterogeneousModelsShareOneEdge(t *testing.T) {
	// Two devices run different applications (different block FLOPs, data
	// sizes and exit rates) against the same edge; each tenant's work must
	// execute with its own model.
	edge := startTestbed(t)
	small := offload.ModelParams{
		Mu:    [3]float64{5e7, 2e8, 3e8},
		D:     [3]float64{3088, 16384, 4096},
		Sigma: [3]float64{0.5, 0.9, 1},
	}
	big := testModel()

	var wg sync.WaitGroup
	stats := make([]*DeviceStats, 2)
	errs := make([]error, 2)
	models := []offload.ModelParams{small, big}
	for i, m := range models {
		wg.Add(1)
		go func(i int, m offload.ModelParams) {
			defer wg.Done()
			cfg := testDeviceConfig(edge.Addr(), []string{"small-app", "big-app"}[i])
			cfg.Model = m
			cfg.Slots = 20
			cfg.Seed = int64(40 + i)
			stats[i], errs[i] = RunDevice(cfg)
		}(i, m)
	}
	wg.Wait()
	for i := range models {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if stats[i].Errors != 0 {
			t.Errorf("device %d: %d errors", i, stats[i].Errors)
		}
	}
	// The small app's exit-3 rate (1 - 0.9 = 10%) differs from the big
	// app's (20%): the edge must have honored per-tenant sigma via the
	// device-side sampling. Exit sampling is deterministic under the fixed
	// seeds, unlike wall-clock TCT ordering, which inverts under race
	// instrumentation where fixed per-RPC overhead swamps the per-model
	// compute gap.
	exit3 := func(s *DeviceStats) float64 {
		return float64(s.ExitCounts[2]) / float64(s.Completed)
	}
	if exit3(stats[0]) >= exit3(stats[1]) {
		t.Errorf("small app exit-3 rate (%v) should be below big app's (%v)",
			exit3(stats[0]), exit3(stats[1]))
	}
	for i := range models {
		if stats[i].Completed == 0 || stats[i].TCT.Mean() <= 0 {
			t.Errorf("device %d: no useful completions (completed=%d, mean TCT %v)",
				i, stats[i].Completed, stats[i].TCT.Mean())
		}
	}
}

// TestEdgeShedsQueuedWorkAtEnvelopeDeadline pins the deadline-shed path of
// a request whose only deadline is the one in its envelope: the handler's
// context reports it as a value and never fires, so the executor's own
// wait timer must abandon the job. A tenant's executor is busy with a
// 2 s first block; a second first block whose envelope deadline is 100 ms
// away queues behind it and must come back as a typed deadline failure
// before the first finishes, counted as a shed and never burned.
func TestEdgeShedsQueuedWorkAtEnvelopeDeadline(t *testing.T) {
	RegisterMessages()
	model := testModel()
	model.Mu[0] = 2e9 // 2 s alone on a 1 GFLOPS edge
	edge, err := StartEdge(EdgeConfig{Addr: "127.0.0.1:0", FLOPS: 1e9, Model: model, TimeScale: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	defer edge.Close()
	c, err := rpc.Dial(edge.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Call(ctx, RegisterReq{DeviceID: "a", FLOPS: 1e9, ArrivalMean: 1}); err != nil {
		t.Fatalf("register: %v", err)
	}
	tenant, _, err := edge.tenantSnapshot("a")
	if err != nil {
		t.Fatalf("tenant: %v", err)
	}

	first := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, FirstBlockReq{DeviceID: "a", TaskID: 1, ExitStage: 1})
		first <- err
	}()
	waitUntil(t, "first block in service", func() bool { return tenant.exec.Pending() == 1 })

	// The client's own context has no deadline: only the envelope's bounds
	// the second request.
	meta := rpc.Meta{Deadline: time.Now().Add(100 * time.Millisecond).UnixNano()}
	_, err = c.CallMeta(ctx, meta, FirstBlockReq{DeviceID: "a", TaskID: 2, ExitStage: 1})
	if !errors.Is(err, rpc.ErrDeadlineExceeded) {
		t.Fatalf("queued request past its envelope deadline = %v, want rpc.ErrDeadlineExceeded", err)
	}
	select {
	case err := <-first:
		t.Fatalf("the shed came back only after the first block finished (first: %v)", err)
	default:
	}
	if got := edge.tel.sheds.Value(); got != 1 {
		t.Errorf("edge shed counter = %d, want 1", got)
	}
	if got := edge.srv.DeadlineSheds(); got != 0 {
		t.Errorf("shed on arrival = %d, want 0: the request was live when it arrived", got)
	}

	if err := <-first; err != nil {
		t.Fatalf("first block: %v", err)
	}
	// The abandoned job leaves the queue as soon as the server is free; a
	// burn would hold it there for another 2 s.
	waitUntil(t, "abandoned job drained", func() bool { return tenant.exec.Pending() == 0 })
	if got := edge.tel.block[0].Count(); got != 1 {
		t.Errorf("block-1 services = %d, want 1: the shed job was burned", got)
	}
}
