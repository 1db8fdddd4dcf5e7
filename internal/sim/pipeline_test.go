package sim

import (
	"math"
	"testing"

	"leime/internal/model"
	"leime/internal/partition"
)

// pipeNet builds a resnet-34 MEDNN with the given exits and cumulative exit
// probabilities at them.
func pipeNet(t *testing.T, e1, e2 int, s1, s2 float64) *model.MEDNN {
	t.Helper()
	p := model.ResNet34()
	m := p.NumExits()
	sigma := make([]float64, m)
	for i := range sigma {
		switch {
		case i+1 >= m:
			sigma[i] = 1
		case i+1 >= e2:
			sigma[i] = s2
		case i+1 >= e1:
			sigma[i] = s1
		}
	}
	n, err := model.NewMEDNN(p, e1, e2, sigma)
	if err != nil {
		t.Fatalf("NewMEDNN: %v", err)
	}
	return n
}

func pipeChain() partition.Chain {
	return partition.Chain{
		Workers: []partition.Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 2e9}},
		Hops: []partition.Hop{
			{BandwidthBps: 80e6, LatencySec: 0.004},
			{BandwidthBps: 200e6, LatencySec: 0.002},
			{BandwidthBps: 200e6, LatencySec: 0.002},
		},
	}
}

// TestPipelineSimPinsSolver is the solver<->simulator differential pin: one
// idle task per exit class must traverse the simulated chain in exactly the
// analytic per-class latency (same sums, same order, no queueing).
func TestPipelineSimPinsSolver(t *testing.T) {
	net := pipeNet(t, 5, 11, 0.4, 0.8)
	chain := pipeChain()
	plan, err := partition.Solve(partition.Config{Net: net, Chain: chain})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	res, err := RunPipeline(PipelineConfig{
		Net:   net,
		Chain: chain,
		Cuts:  plan.Cuts,
		Arrivals: []PipeArrival{
			{AtSec: 0, Class: 1},
			{AtSec: 1000, Class: 2},
			{AtSec: 2000, Class: 3},
		},
	})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	for c := 0; c < 3; c++ {
		got := res.ClassTCT[c].Mean()
		want := plan.ClassLatencySec[c]
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("class %d: sim latency %.12f, solver %.12f", c+1, got, want)
		}
	}
	if res.Degraded != 0 || res.Lost != 0 || res.Completed != 3 {
		t.Errorf("idle run: completed=%d degraded=%d lost=%d", res.Completed, res.Degraded, res.Lost)
	}
}

// TestPipelineSimConservesUnderLoad drives the chain below its sustainable
// rate: every task completes at its requested exit and mean latency sits at
// or above the idle analytic expectation (queueing only adds).
func TestPipelineSimConservesUnderLoad(t *testing.T) {
	net := pipeNet(t, 5, 11, 0.4, 0.8)
	chain := pipeChain()
	plan, err := partition.Solve(partition.Config{Net: net, Chain: chain})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	res, err := RunPipeline(PipelineConfig{
		Net:        net,
		Chain:      chain,
		Cuts:       plan.Cuts,
		Rate:       0.6 * plan.SustainableRate,
		HorizonSec: 400 / plan.SustainableRate,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if res.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if res.Completed != res.Generated || res.Lost != 0 || res.Degraded != 0 {
		t.Errorf("conservation: generated=%d completed=%d lost=%d degraded=%d",
			res.Generated, res.Completed, res.Lost, res.Degraded)
	}
	if got := res.TCT.Mean(); got < plan.ExpectedLatencySec*(1-1e-9) {
		t.Errorf("mean TCT %.6f below idle expectation %.6f", got, plan.ExpectedLatencySec)
	}
}

// TestPipelineSimDeterministic re-runs the loaded scenario and demands
// bit-identical aggregates.
func TestPipelineSimDeterministic(t *testing.T) {
	net := pipeNet(t, 5, 11, 0.4, 0.8)
	chain := pipeChain()
	run := func() *PipelineResult {
		res, err := RunPipeline(PipelineConfig{
			Net:        net,
			Chain:      chain,
			Cuts:       []int{net.E1, net.E2, net.Profile.NumExits()},
			Rate:       2,
			HorizonSec: 30,
			Seed:       41,
		})
		if err != nil {
			t.Fatalf("RunPipeline: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Generated != b.Generated || a.Completed != b.Completed || a.ExitCounts != b.ExitCounts {
		t.Errorf("nondeterministic: %+v vs %+v", a.ExitCounts, b.ExitCounts)
	}
	if a.TCT.Mean() != b.TCT.Mean() {
		t.Errorf("nondeterministic mean TCT: %v vs %v", a.TCT.Mean(), b.TCT.Mean())
	}
}

// TestPipelineSimChaosKill fail-stops the middle stage mid-run: tasks that
// would cross into it from then on are answered from stage 0's exit head
// (degraded, never hung), work caught inside the dead stage is lost, and
// task conservation still balances.
func TestPipelineSimChaosKill(t *testing.T) {
	net := pipeNet(t, 5, 11, 0.4, 0.8)
	chain := pipeChain()
	m := net.Profile.NumExits()
	cuts := []int{net.E1, net.E2, m} // stage j hosts exit j+1
	idle, err := partition.Evaluate(partition.Config{Net: net, Chain: chain}, cuts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	horizon := 60 * idle.BottleneckSec
	res, err := RunPipeline(PipelineConfig{
		Net:        net,
		Chain:      chain,
		Cuts:       cuts,
		Rate:       0.5 / idle.BottleneckSec,
		HorizonSec: horizon,
		Seed:       11,
		KillStage:  1,
		KillAtSec:  horizon / 2,
	})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if res.Degraded == 0 {
		t.Error("killing stage 1 mid-run should degrade post-kill class>=2 tasks to exit 1")
	}
	if res.Completed+res.Lost != res.Generated {
		t.Errorf("conservation: generated=%d completed=%d lost=%d", res.Generated, res.Completed, res.Lost)
	}
	// Degraded tasks exited shallower than requested: exit-1 completions must
	// exceed the exit-1 request share's natural count, and no task may report
	// an exit beyond its dead stage's reach after the kill.
	if res.ExitCounts[0] == 0 {
		t.Error("no exit-1 completions at all")
	}
}

// TestPipelineSimChainBeatsSaturatedSingleEdge is the pipelining claim on
// the model clock: a resnet-34 offered at 1.2x what one 1.5 GFLOPS edge
// sustains saturates single-edge offload, while the solver's cut across
// three such edges carries the same Poisson load with bounded queues. One
// edge sustains 1.18 tasks/s; at 1.41 tasks/s the solver cuts at [4 8 17]
// and the chain sustains 3.28/s. With seed 93 and a 200-task horizon the
// single arm's mean TCT is 13.6x the pipelined arm's (4.2x at a 50-task
// horizon): the single arm's queue grows for the whole horizon, so the
// ratio grows with it.
func TestPipelineSimChainBeatsSaturatedSingleEdge(t *testing.T) {
	net := pipeNet(t, 5, 11, 0.4, 0.8)
	chain := partition.Chain{
		Workers: []partition.Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 1.5e9}},
		Hops: []partition.Hop{
			{BandwidthBps: 80e6, LatencySec: 0.004},
			{BandwidthBps: 200e6, LatencySec: 0.002},
			{BandwidthBps: 200e6, LatencySec: 0.002},
		},
	}
	single, err := partition.SingleWorker(partition.Config{Net: net, Chain: chain})
	if err != nil {
		t.Fatalf("SingleWorker: %v", err)
	}
	rate := 1.2 * single.SustainableRate
	plan, err := partition.Solve(partition.Config{Net: net, Chain: chain, ArrivalRate: rate})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	m := net.Profile.NumExits()
	if len(plan.Stages) < 2 || plan.Cuts[len(plan.Cuts)-1] != m {
		t.Fatalf("cut %v at %.2f tasks/s: want >= 2 stages ending at %d", plan.Cuts, rate, m)
	}
	arm := func(ch partition.Chain, cuts []int) *PipelineResult {
		t.Helper()
		res, err := RunPipeline(PipelineConfig{
			Net: net, Chain: ch, Cuts: cuts,
			Rate: rate, HorizonSec: 200 / rate, Seed: 93,
		})
		if err != nil {
			t.Fatalf("RunPipeline(%v): %v", cuts, err)
		}
		if res.Generated == 0 || res.Completed != res.Generated {
			t.Fatalf("cut %v: generated %d, completed %d", cuts, res.Generated, res.Completed)
		}
		return res
	}
	one := arm(partition.Chain{Workers: chain.Workers[:1], Hops: chain.Hops[:1]}, []int{m})
	piped := arm(chain, plan.Cuts)
	speedup := one.TCT.Mean() / piped.TCT.Mean()
	if speedup < 2 {
		t.Errorf("single-edge mean TCT %.3fs is only %.2fx the pipelined %.3fs, want >= 2x",
			one.TCT.Mean(), speedup, piped.TCT.Mean())
	}
	t.Logf("cut %v: single %.3fs, pipelined %.3fs, speedup %.1fx", plan.Cuts, one.TCT.Mean(), piped.TCT.Mean(), speedup)
}
