package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"leime/internal/loadgen"
	"leime/internal/offload"
	"leime/internal/partition"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/telemetry"
)

// workload is one named set of inputs. Exactly one of closed, open, pipeline
// and devices describes how it is driven.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists; BENCHMARK.json and
	// the README repeat it.
	why string
	// window is the measured window when -seconds does not override it.
	window time.Duration
	// limit is the wall latency a completed task must meet to count as good.
	limit time.Duration
	// edge is the cloud + edge topology of the four rpc-driven workloads.
	edge *edgeSpec
	// closed: conns x inflight callers with every task pinned to one exit.
	closed *closedSpec
	// open: Poisson arrivals per tenant, optionally with per-tenant deadline
	// bases in wall seconds.
	open *openSpec
	// pipeline and devices select the two workloads with their own topology.
	pipeline, devices bool
	// traceEvery is the trace sampling of the traced run: one task in this
	// many carries a trace context.
	traceEvery int
	// copies is how many independent copies of the topology an open-loop
	// workload drives at once, each with its own schedule (0 means one). A
	// 10 s window holds about a hundred relaxation times of a queue at 70 %
	// utilisation, so one copy's mean TCT moves 12 % from seed to seed; the
	// copies are idle most of the time and cost only their share of CPU.
	copies int
}

// copyCount resolves the zero value of copies.
func (w *workload) copyCount() int {
	if w.copies < 1 {
		return 1
	}
	return w.copies
}

// tenantsPerCopy is how many schedule devices one copy of the topology has.
func (w *workload) tenantsPerCopy() int {
	if w.open != nil {
		return w.open.tenants
	}
	return 1
}

type closedSpec struct {
	inflight, exit int
	// maxPerSec is a ceiling on the rate the loop can reach (several times
	// the reference host's), used only to size the traced run's span ring.
	maxPerSec float64
}

type openSpec struct {
	tenants     int
	rate        float64
	deadlineSec []float64
}

// offeredPerSec is the open-loop offered rate in tasks per wall second (0
// for closed loops, whose rate is an output).
func (w *workload) offeredPerSec() float64 {
	switch {
	case w.open != nil:
		return float64(w.copyCount()*w.open.tenants) * w.open.rate
	case w.devices:
		return float64(len(deviceNodes())) * deviceArrivals / (deviceTauSec * float64(deviceScale))
	case w.pipeline:
		return float64(w.copyCount()) * pipelineRate / float64(pipelineScale)
	}
	return 0
}

// spansPerTask bounds how many spans one traced task leaves behind.
const spansPerTask = 12

// ringSize is the tracer capacity that holds every span of a traced window
// (and its warm-up), so that none is dropped.
func (w *workload) ringSize(window time.Duration) int {
	rate := w.offeredPerSec()
	if w.closed != nil {
		rate = w.closed.maxPerSec / float64(w.traceEvery)
	}
	return int(rate*(window+warmup).Seconds()) * spansPerTask
}

// overloadPolicy is PR 8's whole control plane switched on: backlog budget,
// adaptive batch window, deadline admission, EDF and targeted degradation.
func overloadPolicy() runtime.ControlPolicy {
	return runtime.ControlPolicy{
		MaxBacklogSec:     3,
		DeadlineAdmission: true,
		EDF:               true,
		AdaptiveBatch:     true,
		Degrade:           runtime.DegradePolicy{Enabled: true},
	}
}

// workloads lists the benchmark's workloads in reporting order.
func workloads() []*workload {
	n := nproc()
	// The data-plane topology makes service time about a nanosecond, so a
	// task costs what rpc framing and Executor dispatch cost and nothing else.
	dataplane := func() *edgeSpec {
		return &edgeSpec{edgeFLOPS: 8e13, cloudFLOPS: 8e13, scale: 0.0005, tenants: n, registerRate: 1000}
	}
	// The edge topology is the selftune fixture: a 4 GFLOPS edge at scale
	// 0.02 serves about 340 tasks per wall second of the sampled exit mix.
	edge := func(rate float64, policy runtime.ControlPolicy) *edgeSpec {
		return &edgeSpec{edgeFLOPS: 4e9, cloudFLOPS: 2e12, scale: 0.02, tenants: 4, registerRate: rate, policy: policy}
	}
	return []*workload{
		{
			name: "dataplane-small", window: 10 * time.Second, limit: 20 * time.Millisecond,
			why:  "closed loop of 3 KB first-block frames at ~1 ns service: a task costs rpc small frames plus Executor enqueue/dispatch; alloc, write-coalescing and goroutine-per-request work must show here",
			edge: dataplane(), closed: &closedSpec{inflight: 16, exit: 1, maxPerSec: 200e3}, traceEvery: 256,
		},
		{
			name: "dataplane-large", window: 10 * time.Second, limit: 50 * time.Millisecond,
			why:  "closed loop pinned to exit 3, so every task also crosses edge to cloud with a 192 KB frame: encoder-pool cap, ReliableClient, cloud tier; a small-frame win that costs large frames shows here",
			edge: dataplane(), closed: &closedSpec{inflight: 4, exit: 3, maxPerSec: 10e3}, traceEvery: 8,
		},
		{
			name: "edge-steady", window: 20 * time.Second, limit: 400 * time.Millisecond,
			why:  "open loop at 70 % of modelled edge capacity, zero policy: TCT is Executor queue wait + service sleep + cloud hop, data plane < 1 %; an rpc change predicts no change, a scheduling change shows",
			edge: edge(60, runtime.ControlPolicy{}), open: &openSpec{tenants: 4, rate: 60}, traceEvery: 1, copies: 3,
		},
		{
			name: "edge-overload", window: 15 * time.Second,
			why:  "open loop at 2x capacity with deadline classes and the full control policy: drives reject CAS, EDF insert, batch collect and Predictor/Window/Plan; goodput and answer quality under overload",
			edge: edge(170, overloadPolicy()),
			// Deadline bases of 1, 1, 4 and 4 model seconds at scale 0.02.
			open: &openSpec{tenants: 4, rate: 170, deadlineSec: []float64{0.02, 0.02, 0.08, 0.08}}, traceEvery: 1,
		},
		{
			name: "device-e2e", window: 10 * time.Second, limit: 100 * time.Millisecond,
			why:     "the paper's experiment: 2 Pi + 2 Nano devices run the Lyapunov policy over shaped uplinks; only here are offload.Controller, KKT shares, netem.Shaper, device compute and fallback on the path",
			devices: true,
		},
		{
			name: "pipeline-3stage", window: 25 * time.Second, limit: time.Second,
			why:      "resnet-34 cut by partition.Solve over three live 1.5 GFLOPS edges at 1.6x one worker's rate: first live measurement of the pipelining claim, hop forwarding and multi-MB activations",
			pipeline: true, traceEvery: 1, copies: 2,
		},
	}
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// built is a topology ready for load, with what the layer metrics need to
// know about it.
type built struct {
	sys *system
	// model samples exits for the open-loop schedule.
	model offload.ModelParams
	// scale is the topology's time compression.
	scale runtime.Scale
	// plan is the solved cut (pipeline workload only).
	plan *partition.Plan
}

// build assembles the workload's topology, every copy of it (never called
// for device-e2e, whose devices own their connections).
func (w *workload) build(ctx context.Context, seed int64, tr *telemetry.Tracer) (*built, error) {
	b := &built{}
	parts := make([]*system, 0, w.copyCount())
	for c := 0; c < w.copyCount(); c++ {
		part, err := w.buildCopy(ctx, seed, c, tr, b)
		if err != nil {
			for _, p := range parts {
				p.close()
			}
			return nil, err
		}
		parts = append(parts, part)
	}
	b.sys = joinSystems(parts, w.tenantsPerCopy())
	return b, nil
}

// buildCopy assembles one copy of the topology and records what is common
// to all copies in b.
func (w *workload) buildCopy(ctx context.Context, seed int64, c int, tr *telemetry.Tracer, b *built) (*system, error) {
	if w.pipeline {
		sys, lsys, plan, err := buildPipeline(ctx, tr)
		if err != nil {
			return nil, err
		}
		b.model, b.scale, b.plan = lsys.Params(), pipelineScale, plan
		return sys, nil
	}
	spec := *w.edge
	spec.seed, spec.copy = seed, c
	sys, model, err := buildEdge(ctx, spec, tr)
	if err != nil {
		return nil, err
	}
	b.model, b.scale = model, spec.scale
	return sys, nil
}

// joinSystems presents independent copies of a topology as one system:
// schedule devices [c*per, (c+1)*per) belong to copy c.
func joinSystems(parts []*system, per int) *system {
	if len(parts) == 1 {
		return parts[0]
	}
	out := &system{rpcSpan: parts[0].rpcSpan, degrading: parts[0].degrading, shares: map[string]float64{}}
	for _, p := range parts {
		for id, share := range p.shares {
			out.shares[id] = share
		}
	}
	out.issue = func(ctx context.Context, a loadgen.Arrival, meta rpc.Meta) (runtime.TaskResp, error) {
		part := parts[a.Device/per]
		a.Device %= per
		return part.issue(ctx, a, meta)
	}
	out.close = func() {
		for _, p := range parts {
			p.close()
		}
	}
	return out
}

// schedule expands the open-loop arrival sequence for a window (plus the
// warm-up that precedes it) from the seed. The sequence is loadgen.Schedule's
// Poisson process conditioned on its count: each tenant keeps exactly
// rate x horizon arrivals and its times are scaled so that they fill the
// horizon (given n arrivals, t_1..t_n over t_(n+1) are uniform order
// statistics, so this is still a Poisson sample). Every seed then offers the
// same load; without it the count's 2 % fluctuation moves utilisation by as
// much, and at 70 % utilisation that alone moves mean TCT by 10 %.
func (w *workload) schedule(b *built, seed int64, window time.Duration) ([]loadgen.Arrival, error) {
	horizon := warmup + window
	cfg := loadgen.Config{
		EdgeAddr: "unused", // Schedule validates it; the benchmark dials its own connections
		// A quarter more than the horizon leaves every tenant arrivals to spare.
		Duration: horizon * 5 / 4, Seed: seed, Model: b.model,
	}
	if w.pipeline {
		cfg.Devices, cfg.Rate = 1, pipelineRate/float64(pipelineScale)
	} else {
		cfg.Devices, cfg.Rate, cfg.TenantDeadlineSec = w.open.tenants, w.open.rate, w.open.deadlineSec
	}
	keep := int(cfg.Rate*horizon.Seconds() + 0.5)
	var out []loadgen.Arrival
	for c := 0; c < w.copyCount(); c++ {
		cfg.Seed = seed + int64(c)*7919 // each copy draws its own schedule
		raw, err := loadgen.Schedule(cfg)
		if err != nil {
			return nil, err
		}
		perTenant := make([][]loadgen.Arrival, cfg.Devices)
		for _, a := range raw {
			if len(perTenant[a.Device]) <= keep { // one past keep: its time sets the scale
				perTenant[a.Device] = append(perTenant[a.Device], a)
			}
		}
		for dev, arrivals := range perTenant {
			if len(arrivals) <= keep {
				return nil, fmt.Errorf("tenant %d drew %d arrivals, fewer than the %d the window needs", dev, len(arrivals), keep+1)
			}
			stretch := float64(horizon) / float64(arrivals[keep].At)
			for _, a := range arrivals[:keep] {
				a.At = time.Duration(float64(a.At) * stretch)
				a.Device += c * cfg.Devices
				out = append(out, a)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// hashSchedule fingerprints an arrival sequence.
func hashSchedule(schedule []loadgen.Arrival) string {
	h := fnv.New64a()
	for _, a := range schedule {
		fmt.Fprintf(h, "%d:%d:%d:%d:%d;", a.At, a.Device, a.Task, a.Exit, a.Deadline)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// load runs one measurement window against a built topology and returns it
// with the fingerprint of its seeded inputs.
func (w *workload) load(ctx context.Context, b *built, seed int64, window time.Duration, tr *telemetry.Tracer) (*measured, string, error) {
	spec := loadSpec{limit: w.limit, tracer: tr, traceEvery: w.traceEvery}
	if w.closed != nil {
		m := runClosed(ctx, b.sys, spec, min(w.edge.tenants, nproc()), w.closed.inflight, w.closed.exit, window)
		// A closed loop's only seeded input is the payload; its shape is fixed.
		h := fnv.New64a()
		fmt.Fprintf(h, "%s:%d:%d:%d", w.name, seed, w.closed.inflight, w.closed.exit)
		return m, fmt.Sprintf("%016x", h.Sum64()), nil
	}
	schedule, err := w.schedule(b, seed, window)
	if err != nil {
		return nil, "", err
	}
	return runOpen(ctx, b.sys, spec, schedule, window), hashSchedule(schedule), nil
}
