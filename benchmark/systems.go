package main

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"leime"
	"leime/internal/loadgen"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/partition"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/telemetry"
)

// nproc is the parallelism the load generator and the system share.
func nproc() int { return goruntime.GOMAXPROCS(0) }

// buildModel runs the offline half of LEIME for an architecture on the
// paper's Raspberry Pi testbed environment: calibration, exit setting and
// partition. Every workload pays it in set-up.
func buildModel(arch string) (*leime.System, error) {
	return leime.Build(leime.Options{Arch: arch, Env: leime.TestbedEnv(leime.RaspberryPi3B)})
}

// closers is a stack of tear-down steps, run newest first.
type closers []func()

func (c *closers) add(f func()) { *c = append(*c, f) }

func (c closers) closeAll() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

// edgeSpec describes a cloud + edge topology driven over raw rpc clients,
// the shape the two data-plane and the two edge workloads share.
type edgeSpec struct {
	edgeFLOPS, cloudFLOPS float64
	scale                 runtime.Scale
	policy                runtime.ControlPolicy
	// tenants is the number of registered devices; they are multiplexed
	// over min(tenants, nproc) connections.
	tenants int
	// registerRate is the arrival rate each tenant declares (tasks per wall
	// second, the convention loadgen uses); the KKT allocation and the
	// degradation planner read it.
	registerRate float64
	// seed fills the task payload, so a run's input bytes follow the seed.
	seed int64
	// copy numbers the topology among a workload's independent copies; it
	// keeps tenant ids distinct across them.
	copy int
}

// buildEdge starts the tiers, dials, registers every tenant and runs one
// full-depth task so the lazily dialed cloud path is up before measuring.
func buildEdge(ctx context.Context, spec edgeSpec, tr *telemetry.Tracer) (*system, offload.ModelParams, error) {
	sys, err := buildModel("inception-v3")
	if err != nil {
		return nil, offload.ModelParams{}, err
	}
	model := sys.Params()
	var up closers
	fail := func(err error) (*system, offload.ModelParams, error) {
		up.closeAll()
		return nil, offload.ModelParams{}, err
	}
	cloud, err := runtime.StartCloud(runtime.CloudConfig{
		Addr: "127.0.0.1:0", FLOPS: spec.cloudFLOPS, Block3FLOPs: model.Mu[2], TimeScale: spec.scale, Tracer: tr,
	})
	if err != nil {
		return fail(err)
	}
	up.add(func() { _ = cloud.Close() })
	edge, err := runtime.StartEdge(runtime.EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: spec.edgeFLOPS, Model: model, CloudAddr: cloud.Addr(),
		TimeScale: spec.scale, Policy: spec.policy, Tracer: tr,
	})
	if err != nil {
		return fail(err)
	}
	up.add(func() { _ = edge.Close() })

	conns := spec.tenants
	if n := nproc(); conns > n {
		conns = n
	}
	clients := make([]*rpc.Client, conns)
	for i := range clients {
		c, err := rpc.Dial(edge.Addr(), nil)
		if err != nil {
			return fail(err)
		}
		clients[i] = c
		up.add(func() { _ = c.Close() })
	}
	ids := make([]string, spec.tenants)
	shares := make(map[string]float64, spec.tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d-%02d", spec.copy, i)
		if _, err := clients[i%conns].Call(ctx, runtime.RegisterReq{
			DeviceID: ids[i], FLOPS: 1e9, ArrivalMean: spec.registerRate, Model: model,
		}); err != nil {
			return fail(fmt.Errorf("register %s: %w", ids[i], err))
		}
	}
	// Every registration re-solves the allocation, so the shares are read
	// once all tenants are in.
	got, err := clients[0].Call(ctx, runtime.EdgeStatsReq{})
	if err != nil {
		return fail(err)
	}
	stats, ok := got.(runtime.EdgeStatsResp)
	if !ok {
		return fail(fmt.Errorf("unexpected edge stats reply %T", got))
	}
	for id, p := range stats.Shares {
		shares[id] = p * spec.edgeFLOPS
	}

	payload := make([]byte, int(model.D[0]))
	rand.New(rand.NewSource(spec.seed)).Read(payload)
	out := &system{
		rpcSpan:   "rpc.first_block",
		degrading: spec.policy.Degrade.Enabled,
		shares:    shares,
		close:     func() { up.closeAll() },
		issue: func(ctx context.Context, a loadgen.Arrival, meta rpc.Meta) (runtime.TaskResp, error) {
			got, err := clients[a.Device%conns].CallMeta(ctx, meta, runtime.FirstBlockReq{
				DeviceID: ids[a.Device], TaskID: a.Task, Payload: payload, ExitStage: a.Exit,
			})
			if err != nil {
				return runtime.TaskResp{}, err
			}
			resp, ok := got.(runtime.TaskResp)
			if !ok {
				return runtime.TaskResp{}, fmt.Errorf("unexpected reply %T", got)
			}
			return resp, nil
		},
	}
	if _, err := out.issue(ctx, loadgen.Arrival{Task: 1 << 62, Exit: 3}, rpc.Meta{}); err != nil {
		return fail(fmt.Errorf("first task: %w", err))
	}
	return out, model, nil
}

// pipelineChain is PR 9's study fixture: three 1.5 GFLOPS workers behind an
// 80 Mbps / 4 ms ingress, joined by 200 Mbps / 2 ms links.
func pipelineChain() partition.Chain {
	return partition.Chain{
		Workers: []partition.Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 1.5e9}},
		Hops: []partition.Hop{
			{BandwidthBps: 80e6, LatencySec: 0.004},
			{BandwidthBps: 200e6, LatencySec: 0.002},
			{BandwidthBps: 200e6, LatencySec: 0.002},
		},
	}
}

// pipelineRate is the offered load in model tasks per second: 1.6x what one
// worker sustains, 59 % of what the three-stage chain does.
const pipelineRate = 2.4

// pipelineScale compresses the pipeline workload's time.
const pipelineScale = runtime.Scale(0.05)

// solvePipeline builds resnet-34 and cuts it across the chain at the
// offered rate. The cut is re-priced by partition.Evaluate and must agree
// with the solver to 1e-9, the differential anchor of PR 9.
func solvePipeline() (*leime.System, *partition.Plan, error) {
	sys, err := buildModel("resnet-34")
	if err != nil {
		return nil, nil, err
	}
	cfg := partition.Config{Net: sys.MEDNN(), Chain: pipelineChain(), ArrivalRate: pipelineRate}
	plan, err := partition.Solve(cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(plan.Stages) != 3 {
		return nil, nil, fmt.Errorf("partition: %d stages, the workload is defined for 3", len(plan.Stages))
	}
	again, err := partition.Evaluate(cfg, plan.Cuts)
	if err != nil {
		return nil, nil, err
	}
	if d := again.ExpectedLatencySec - plan.ExpectedLatencySec; d > 1e-9 || d < -1e-9 {
		return nil, nil, fmt.Errorf("partition: Solve priced the cut at %.12g s, Evaluate at %.12g s",
			plan.ExpectedLatencySec, again.ExpectedLatencySec)
	}
	return sys, plan, nil
}

// buildPipeline starts one edge per stage, installs the solved cut, dials
// the chain and sends one full-depth task so every hop is connected.
func buildPipeline(ctx context.Context, tr *telemetry.Tracer) (*system, *leime.System, *partition.Plan, error) {
	sys, plan, err := solvePipeline()
	if err != nil {
		return nil, nil, nil, err
	}
	chain := pipelineChain()
	var up closers
	fail := func(err error) (*system, *leime.System, *partition.Plan, error) {
		up.closeAll()
		return nil, nil, nil, err
	}
	link := func(h partition.Hop) netem.Link {
		return netem.Link{BandwidthBps: h.BandwidthBps, Latency: time.Duration(h.LatencySec * float64(time.Second))}
	}
	addrs := make([]string, len(plan.Stages))
	for j, st := range plan.Stages {
		cfg := runtime.EdgeConfig{
			Addr: "127.0.0.1:0", FLOPS: chain.Workers[st.Worker].FLOPS, Model: sys.Params(),
			TimeScale: pipelineScale, Tracer: tr,
		}
		if j+1 < len(plan.Stages) {
			cfg.PeerLink = link(chain.Hops[plan.Stages[j+1].Worker])
		}
		e, err := runtime.StartEdge(cfg)
		if err != nil {
			return fail(err)
		}
		up.add(func() { _ = e.Close() })
		addrs[j] = e.Addr()
	}
	if err := runtime.InstallPipeline(ctx, "bench", addrs, runtime.PipelineFromPlan(plan)); err != nil {
		return fail(err)
	}
	pc, err := runtime.DialPipeline(runtime.PipelineClientConfig{
		Addr: addrs[0], PipelineID: "bench", DeviceID: "bench-src",
		InputBytes: sys.MEDNN().Profile.DataBytes(0), Uplink: link(chain.Hops[0]), TimeScale: pipelineScale, Seed: 9,
	})
	if err != nil {
		return fail(err)
	}
	up.add(func() { _ = pc.Close() })
	out := &system{
		rpcSpan: "pipeline.do",
		close:   func() { up.closeAll() },
		issue: func(ctx context.Context, a loadgen.Arrival, meta rpc.Meta) (runtime.TaskResp, error) {
			return pc.DoMeta(ctx, meta, a.Task, a.Exit)
		},
	}
	if _, err := out.issue(ctx, loadgen.Arrival{Task: 1 << 62, Exit: 3}, rpc.Meta{}); err != nil {
		return fail(fmt.Errorf("first task: %w", err))
	}
	return out, sys, plan, nil
}
