package runtime

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"leime/internal/model"
	"leime/internal/netem"
	"leime/internal/partition"
	"leime/internal/sim"
)

// pipeTestNet builds the resnet-34 MEDNN the pipeline differential runs on.
func pipeTestNet(t *testing.T) *model.MEDNN {
	t.Helper()
	p := model.ResNet34()
	m := p.NumExits()
	sigma := make([]float64, m)
	for i := range sigma {
		switch {
		case i+1 >= m:
			sigma[i] = 1
		case i+1 >= 11:
			sigma[i] = 0.8
		case i+1 >= 5:
			sigma[i] = 0.4
		}
	}
	n, err := model.NewMEDNN(p, 5, 11, sigma)
	if err != nil {
		t.Fatalf("NewMEDNN: %v", err)
	}
	return n
}

// pipeTestChain mirrors three weak edge workers: the links are the netem
// shapes the runtime edges are configured with below.
func pipeTestChain() partition.Chain {
	return partition.Chain{
		Workers: []partition.Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 2e9}},
		Hops: []partition.Hop{
			{BandwidthBps: 80e6, LatencySec: 0.004},
			{BandwidthBps: 200e6, LatencySec: 0.002},
			{BandwidthBps: 200e6, LatencySec: 0.002},
		},
	}
}

// startPipelineEdges launches one edge per chain worker and installs the
// given cut as a pipeline across them, returning the stage addresses.
func startPipelineEdges(t *testing.T, chain partition.Chain, plan *partition.Plan, scale Scale) []string {
	t.Helper()
	peer := netem.Link{BandwidthBps: 200e6, Latency: 2 * time.Millisecond}
	addrs := make([]string, len(plan.Stages))
	for j := range plan.Stages {
		edge, err := StartEdge(EdgeConfig{
			Addr:      "127.0.0.1:0",
			FLOPS:     chain.Workers[plan.Stages[j].Worker].FLOPS,
			Model:     testModel(),
			TimeScale: scale,
			PeerLink:  peer,
		})
		if err != nil {
			t.Fatalf("StartEdge %d: %v", j, err)
		}
		t.Cleanup(func() { _ = edge.Close() })
		addrs[j] = edge.Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := InstallPipeline(ctx, "diff", addrs, PipelineFromPlan(plan)); err != nil {
		t.Fatalf("InstallPipeline: %v", err)
	}
	return addrs
}

// TestPipelineRuntimeMatchesSolverAndSim is the three-substrate
// differential: the same three-stage cut is priced analytically
// (partition.Evaluate), replayed on the event simulator, and executed for
// real over loopback TCP; the runtime's per-class latency must land within
// a generous tolerance of both model substrates (which pin each other
// exactly — see internal/sim). Everything the host adds to a task — sleep
// overshoot, a late wake-up, a descheduled goroutine — makes it longer,
// never shorter, so the runtime figure is the fastest of five tasks per
// class, not their mean: the tolerance is spent on the model gap, not on
// which tasks the scheduler happened to delay.
func TestPipelineRuntimeMatchesSolverAndSim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second loopback differential")
	}
	net := pipeTestNet(t)
	chain := pipeTestChain()
	cuts := []int{net.E1, net.E2, net.Profile.NumExits()}
	plan, err := partition.Evaluate(partition.Config{Net: net, Chain: chain}, cuts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	simRes, err := sim.RunPipeline(sim.PipelineConfig{
		Net: net, Chain: chain, Cuts: cuts,
		Arrivals: []sim.PipeArrival{{AtSec: 0, Class: 1}, {AtSec: 1000, Class: 2}, {AtSec: 2000, Class: 3}},
	})
	if err != nil {
		t.Fatalf("sim.RunPipeline: %v", err)
	}

	// At this scale the shallowest class takes 19 ms of wall clock, so the
	// ~2 ms a task pays in sleep granularity and loopback hops is a third of
	// the tolerance; at 0.02 (7.7 ms) the same 2 ms was all of it.
	const scale Scale = 0.05
	addrs := startPipelineEdges(t, chain, plan, scale)
	pc, err := DialPipeline(PipelineClientConfig{
		Addr:       addrs[0],
		PipelineID: "diff",
		DeviceID:   "diff-dev",
		InputBytes: net.Profile.DataBytes(0),
		Uplink:     netem.Link{BandwidthBps: 80e6, Latency: 4 * time.Millisecond},
		TimeScale:  scale,
		Seed:       3,
	})
	if err != nil {
		t.Fatalf("DialPipeline: %v", err)
	}
	defer pc.Close()

	// One untimed full-depth task establishes every hop's connection so
	// the timed tasks measure the chain, not the dials.
	warmCtx, warmCancel := context.WithTimeout(context.Background(), 30*time.Second)
	if _, err := pc.Do(warmCtx, 1, 3); err != nil {
		warmCancel()
		t.Fatalf("warmup: %v", err)
	}
	warmCancel()

	const perClass = 5
	taskID := uint64(1)
	for class := 1; class <= 3; class++ {
		got := math.Inf(1)
		for i := 0; i < perClass; i++ {
			taskID++
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			resp, err := pc.Do(ctx, taskID, class)
			cancel()
			if err != nil {
				t.Fatalf("class %d task %d: %v", class, i, err)
			}
			if resp.ExitStage != class {
				t.Fatalf("class %d task %d exited at %d", class, i, resp.ExitStage)
			}
			got = math.Min(got, scale.ModelSeconds(time.Since(start)))
		}
		for _, ref := range []struct {
			name string
			want float64
		}{
			{"solver", plan.ClassLatencySec[class-1]},
			{"sim", simRes.ClassTCT[class-1].Mean()},
		} {
			if rel := math.Abs(got-ref.want) / ref.want; rel > 0.25 {
				t.Errorf("class %d: runtime %.4fs vs %s %.4fs (%.0f%% off)", class, got, ref.name, ref.want, rel*100)
			}
		}
	}
}

// TestPipelineChaosMidChainKill closes the middle stage's edge while the
// chain is serving: deep tasks must come back degraded to stage 0's hosted
// exit — an accuracy sacrifice, never an error and never a hang — and
// re-installing the chain on a replacement worker repairs full-depth
// service.
func TestPipelineChaosMidChainKill(t *testing.T) {
	net := pipeTestNet(t)
	chain := pipeTestChain()
	cuts := []int{net.E1, net.E2, net.Profile.NumExits()}
	plan, err := partition.Evaluate(partition.Config{Net: net, Chain: chain}, cuts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	const scale Scale = 0.02
	peer := netem.Link{BandwidthBps: 200e6, Latency: 2 * time.Millisecond}
	edges := make([]*Edge, len(plan.Stages))
	addrs := make([]string, len(plan.Stages))
	for j := range plan.Stages {
		edge, err := StartEdge(EdgeConfig{
			Addr:      "127.0.0.1:0",
			FLOPS:     chain.Workers[j].FLOPS,
			Model:     testModel(),
			TimeScale: scale,
			PeerLink:  peer,
		})
		if err != nil {
			t.Fatalf("StartEdge %d: %v", j, err)
		}
		t.Cleanup(func() { _ = edge.Close() })
		edges[j] = edge
		addrs[j] = edge.Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := InstallPipeline(ctx, "chaos", addrs, PipelineFromPlan(plan)); err != nil {
		t.Fatalf("InstallPipeline: %v", err)
	}
	pc, err := DialPipeline(PipelineClientConfig{
		Addr:       addrs[0],
		PipelineID: "chaos",
		DeviceID:   "chaos-dev",
		InputBytes: net.Profile.DataBytes(0),
		Uplink:     netem.Link{BandwidthBps: 80e6, Latency: 4 * time.Millisecond},
		TimeScale:  scale,
		Seed:       5,
	})
	if err != nil {
		t.Fatalf("DialPipeline: %v", err)
	}
	defer pc.Close()

	// Healthy chain first: a class-3 task reaches the terminal stage.
	resp, err := pc.Do(ctx, 1, 3)
	if err != nil || resp.ExitStage != 3 {
		t.Fatalf("healthy chain: exit=%d err=%v", resp.ExitStage, err)
	}

	// Kill the middle worker. Deep tasks now degrade at stage 0, whose
	// range ends past E1, so the First exit answers.
	_ = edges[1].Close()
	for i := 0; i < 3; i++ {
		taskCtx, taskCancel := context.WithTimeout(context.Background(), 15*time.Second)
		resp, err := pc.Do(taskCtx, uint64(10+i), 3)
		taskCancel()
		if err != nil {
			t.Fatalf("post-kill task %d: %v", i, err)
		}
		if resp.ExitStage != 1 {
			t.Errorf("post-kill task %d exited at %d, want degraded exit 1", i, resp.ExitStage)
		}
	}

	// A replacement worker takes over the dead stage: re-pushing the chain
	// (installs are idempotent upserts) restores full-depth service.
	replacement, err := StartEdge(EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     chain.Workers[1].FLOPS,
		Model:     testModel(),
		TimeScale: scale,
		PeerLink:  peer,
	})
	if err != nil {
		t.Fatalf("StartEdge replacement: %v", err)
	}
	t.Cleanup(func() { _ = replacement.Close() })
	addrs[1] = replacement.Addr()
	if err := InstallPipeline(ctx, "chaos", addrs, PipelineFromPlan(plan)); err != nil {
		t.Fatalf("re-InstallPipeline: %v", err)
	}
	resp, err = pc.Do(ctx, 99, 3)
	if err != nil || resp.ExitStage != 3 {
		t.Fatalf("repaired chain: exit=%d err=%v", resp.ExitStage, err)
	}
}

// TestPipelineUnknownPipelineTyped verifies the wire classification of an
// activation for a chain nobody installed.
func TestPipelineUnknownPipelineTyped(t *testing.T) {
	edge, err := StartEdge(EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     1e10,
		Model:     testModel(),
		TimeScale: testScale,
	})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	defer edge.Close()
	pc, err := DialPipeline(PipelineClientConfig{
		Addr:       edge.Addr(),
		PipelineID: "ghost",
		DeviceID:   "d",
		InputBytes: 1024,
		TimeScale:  testScale,
	})
	if err != nil {
		t.Fatalf("DialPipeline: %v", err)
	}
	defer pc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := pc.Do(ctx, 1, 2); !errors.Is(err, ErrUnknownPipeline) {
		t.Fatalf("want ErrUnknownPipeline across the wire, got %v", err)
	}
}

// TestDevicePipelinedMode drives the full device agent in pipelined mode:
// it installs the chain itself, sends every task through it (the offload
// decision is pinned to 1), and completes everything without errors.
func TestDevicePipelinedMode(t *testing.T) {
	net := pipeTestNet(t)
	chain := pipeTestChain()
	cuts := []int{net.E1, net.E2, net.Profile.NumExits()}
	plan, err := partition.Evaluate(partition.Config{Net: net, Chain: chain}, cuts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	const scale Scale = 0.01
	addrs := startPipelineEdges(t, chain, plan, scale)

	cfg := testDeviceConfig("", "pipe-dev")
	cfg.EdgeAddr = ""
	cfg.PipelineAddrs = addrs
	cfg.PipelineID = "diff" // startPipelineEdges installed under this id
	cfg.Pipeline = PipelineFromPlan(plan)
	cfg.TimeScale = scale
	cfg.Slots = 10
	cfg.WarmupSlots = 2
	cfg.ArrivalMean = 1
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if stats.Completed != stats.Generated || stats.Errors != 0 {
		t.Errorf("generated=%d completed=%d errors=%d", stats.Generated, stats.Completed, stats.Errors)
	}
	// Every slot decision must have been "offload into the chain".
	for i, x := range stats.Ratio.Values {
		if x != 1 {
			t.Fatalf("slot %d decision %v, want pinned 1", i, x)
		}
	}
}
