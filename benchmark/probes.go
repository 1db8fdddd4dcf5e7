package main

import (
	"context"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"time"

	"leime/internal/control"
	"leime/internal/exitsetting"
	"leime/internal/loadgen"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/partition"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/sim"
	"leime/internal/telemetry"
)

// probeBatches is how many fixed-count batches each probe times; the
// reported figure is their median.
const probeBatches = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// probeSet collects layer probes: each times a public call of one module
// from outside it.
type probeSet struct {
	out map[string]float64
	err error
}

// measure runs fn(n) probeBatches times and returns the median seconds and
// the median allocations per operation (process-wide, so the server-side
// goroutines of an rpc probe are included, as -benchmem does). After a
// failure it, and every later probe, returns zeros.
func (p *probeSet) measure(name string, n int, fn func(n int) error) (secPerOp, allocsPerOp float64) {
	if p.err != nil {
		return 0, 0
	}
	secs := make([]float64, 0, probeBatches)
	allocs := make([]float64, 0, probeBatches)
	var ms goruntime.MemStats
	for b := 0; b < probeBatches; b++ {
		goruntime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if err := fn(n); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return 0, 0
		}
		elapsed := time.Since(start)
		goruntime.ReadMemStats(&ms)
		secs = append(secs, elapsed.Seconds()/float64(n))
		allocs = append(allocs, float64(ms.Mallocs-before)/float64(n))
	}
	return median(secs), median(allocs)
}

// ns records a probe's time per operation in nanoseconds under name and,
// when allocName is set, its allocations per operation.
func (p *probeSet) ns(name, allocName string, n int, fn func(n int) error) {
	sec, allocs := p.measure(name, n, fn)
	p.out[name] = sec * 1e9
	if allocName != "" {
		p.out[allocName] = allocs
	}
}

// us is ns in microseconds; it returns the seconds per operation.
func (p *probeSet) us(name, allocName string, n int, fn func(n int) error) float64 {
	sec, allocs := p.measure(name, n, fn)
	p.out[name] = sec * 1e6
	if allocName != "" {
		p.out[allocName] = allocs
	}
	return sec
}

// loop adapts a per-operation body to a batch function.
func loop(body func() error) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := body(); err != nil {
				return err
			}
		}
		return nil
	}
}

// runProbes times every layer from outside. The counts are fixed so the
// whole set takes a few seconds on the 2-CPU reference host.
func runProbes(ctx context.Context) (map[string]float64, error) {
	p := &probeSet{out: map[string]float64{"host.nproc": float64(nproc())}}
	runtime.RegisterMessages()
	p.host()
	p.rpc(ctx)
	p.exec(ctx)
	p.offloadNetem()
	p.control()
	p.solvers()
	p.telemetry()
	return p.out, p.err
}

// host calibrates the machine so files from different hosts can be
// normalised: a fixed integer kernel, the timer's overshoot and the raw
// loopback round trip.
func (p *probeSet) host() {
	p.ns("host.spin_ns", "", 1, func(int) error {
		x := uint64(88172645463325252)
		for i := 0; i < 1<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += float64(x & 1)
		return nil
	})
	const nap = 2 * time.Millisecond
	sec, _ := p.measure("host.sleep_overshoot_us", 10, loop(func() error { time.Sleep(nap); return nil }))
	p.out["host.sleep_overshoot_us"] = (sec - nap.Seconds()) * 1e6

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo until the client closes
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		p.err = err
		return
	}
	buf := make([]byte, 64)
	p.us("host.loopback_rtt_us", "", 2000, loop(func() error {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(c, buf)
		return err
	}))
	_ = c.Close()
	<-done
}

// rpc times the message layer against an echo server: small and large
// frames, concurrent calls on one connection, and connection set-up.
func (p *probeSet) rpc(ctx context.Context) {
	if p.err != nil {
		return
	}
	srv, err := rpc.ServeMeta("127.0.0.1:0", func(_ context.Context, _ rpc.Meta, body any) (any, error) { return body, nil })
	if err != nil {
		p.err = err
		return
	}
	defer srv.Close()
	c, err := rpc.Dial(srv.Addr(), nil)
	if err != nil {
		p.err = err
		return
	}
	defer c.Close()
	call := func(body any) func() error {
		return func() error { _, err := c.Call(ctx, body); return err }
	}
	small := runtime.FirstBlockReq{DeviceID: "probe", TaskID: 1, Payload: make([]byte, 3088), ExitStage: 1}
	large := runtime.ThirdBlockReq{TaskID: 1, Payload: make([]byte, 196608)}
	p.us("rpc.call_rtt_us", "rpc.call_allocs", 2000, loop(call(small)))
	sec := p.us("rpc.call_large_rtt_us", "rpc.call_large_allocs", 200, loop(call(large)))
	if sec > 0 {
		p.out["rpc.call_large_mb_per_s"] = float64(len(large.Payload)) / sec / 1e6
	}
	const callers = 16
	sec, _ = p.measure("rpc.concurrent_calls_per_s", 8000, func(n int) error {
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = loop(call(small))(n / callers)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if sec > 0 {
		p.out["rpc.concurrent_calls_per_s"] = 1 / sec
	}
	p.us("rpc.dial_us", "", 50, loop(func() error {
		d, err := rpc.Dial(srv.Addr(), nil)
		if err != nil {
			return err
		}
		return d.Close()
	}))
}

// exec times runtime.Executor: the zero-policy path, the full-policy path
// with a context deadline (PR 8's never-measured cost), a rejection,
// contended submission and the service sleep's overshoot.
func (p *probeSet) exec(ctx context.Context) {
	if p.err != nil {
		return
	}
	newExec := func(execFLOPS float64, policy runtime.ControlPolicy) *runtime.Executor {
		e, err := runtime.NewExecutor(execFLOPS, 1, runtime.WithPolicy(policy))
		if err != nil {
			// Unreachable for the positive rates below; Close on the nil
			// executor is never reached because the probe stops here.
			p.err = err
		}
		return e
	}
	plain := newExec(1e9, runtime.ControlPolicy{})
	// The policy path a job pays on admission and dispatch: backlog-budget
	// CAS, deadline admission against the predictor, EDF insert. The batch
	// window is left out: a sequential probe would sit out the window on
	// every call, and its bookkeeping is timed as control.window_ns.
	full := newExec(1e9, runtime.ControlPolicy{MaxBacklogSec: 3, DeadlineAdmission: true, EDF: true})
	// One FLOP at one FLOPS is a second of backlog against a millisecond budget.
	tight := newExec(1, runtime.ControlPolicy{MaxBacklogSec: 0.001})
	if p.err != nil {
		return
	}
	defer plain.Close()
	defer full.Close()
	defer tight.Close()

	p.ns("exec.do_ns", "exec.do_allocs", 20000, loop(func() error { return plain.Do(0) }))
	dctx, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	p.ns("exec.do_policy_ns", "exec.do_policy_allocs", 20000, loop(func() error {
		_, _, err := full.DoTimedCtx(dctx, 0)
		return err
	}))
	p.ns("exec.reject_ns", "", 20000, loop(func() error {
		if _, _, err := tight.DoTimedCtx(ctx, 1); err == nil {
			return fmt.Errorf("a job over the backlog budget was admitted")
		}
		return nil
	}))
	workers := nproc()
	p.ns("exec.parallel_do_ns", "", 20000, func(n int) error {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				class := float64(w%2+1) * 1e-12 // two classes, burn rounds to 0
				errs[w] = loop(func() error { return plain.Do(class) })(n / workers)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	const burn = 2 * time.Millisecond
	var service time.Duration
	p.measure("exec.sleep_overshoot_us", 10, func(n int) error {
		service = 0
		for i := 0; i < n; i++ {
			_, s, err := plain.DoTimed(burn.Seconds() * 1e9)
			if err != nil {
				return err
			}
			service += s
		}
		return nil
	})
	// The last batch's mean service, not the batch wall time, is the sleep.
	p.out["exec.sleep_overshoot_us"] = float64(service/10-burn) / float64(time.Microsecond)
}

// offloadNetem times the online controller's three decisions and the link
// shaper, and checks the shaper's delay against the link's own formula.
func (p *probeSet) offloadNetem() {
	if p.err != nil {
		return
	}
	sys, err := buildModel("inception-v3")
	if err != nil {
		p.err = err
		return
	}
	ctrl, err := offload.NewController(offload.Config{Model: sys.Params(), TauSec: deviceTauSec, V: deviceV})
	if err != nil {
		p.err = err
		return
	}
	dev := offload.Device{FLOPS: sys.Env().DeviceFLOPS, BandwidthBps: 10e6, LatencySec: 0.02, ArrivalMean: deviceArrivals}
	slot := offload.Slot{Arrivals: 4, State: offload.State{Q: 2, H: 1}, EdgeShareFLOPS: sys.Env().EdgeFLOPS / 4}
	p.ns("offload.decide_ns", "", 2000, loop(func() error { sink += ctrl.Decide(dev, slot); return nil }))
	fleet := make([]offload.Device, 64)
	for i := range fleet {
		fleet[i] = dev
		fleet[i].ArrivalMean = float64(1 + i%7)
	}
	p.ns("offload.allocate_ns", "", 200, loop(func() error {
		shares, err := offload.Allocate(fleet, sys.Env().EdgeFLOPS)
		if err == nil {
			sink += shares[0]
		}
		return err
	}))
	edges := []offload.EdgeState{{ShareFLOPS: 1e10, Backlog: 1}, {ShareFLOPS: 2e10, QueueSec: 0.1}, {ShareFLOPS: 5e9, Backlog: 3, QueueSec: 0.4}}
	p.ns("offload.select_edge_ns", "", 1000, loop(func() error {
		best, _ := ctrl.SelectEdge(dev, 4, 2, edges)
		sink += float64(best)
		return nil
	}))

	var free netem.Shaper
	p.ns("netem.acquire_ns", "", 20000, loop(func() error { sink += float64(free.Acquire(3088)); return nil }))

	link := netem.Link{BandwidthBps: 10e6, Latency: 20 * time.Millisecond}
	shaper, err := netem.NewShaper(link, 1)
	if err != nil {
		p.err = err
		return
	}
	const msg = 64 << 10
	sec, _ := p.measure("netem.shape_err_pct", 1, func(int) error {
		_, err := shaper.Conn(discardConn{}).Write(make([]byte, msg))
		return err
	})
	p.out["netem.shape_err_pct"] = (sec/link.TransferDelay(msg).Seconds() - 1) * 100
}

// discardConn is a connection that accepts every write instantly, so a
// shaped write's duration is the shaper's alone.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// control times the three clock-free controllers of the edge control plane.
func (p *probeSet) control() {
	if p.err != nil {
		return
	}
	pred := control.NewPredictor(0)
	p.ns("control.predict_ns", "", 20000, loop(func() error {
		q := pred.Predict(0.5)
		pred.Observe(q, 0.55)
		sink += q
		return nil
	}))
	win := control.NewWindow(control.WindowConfig{MaxSize: 8, DelayCapSec: 0.05, TargetP99Sec: 1})
	now := 0.0
	p.ns("control.window_ns", "", 20000, loop(func() error {
		now += 0.003
		win.ObserveArrival(now)
		win.ObserveLatency(0.2)
		return nil
	}))
	sys, err := buildModel("inception-v3")
	if err != nil {
		p.err = err
		return
	}
	m := sys.Params()
	tenants := make([]control.TenantDemand, 16)
	for i := range tenants {
		tenants[i] = control.TenantDemand{ID: fmt.Sprint(i), ArrivalRate: float64(1 + i%5), BlockFLOPs: m.Mu, Sigma: m.Sigma}
	}
	p.us("control.plan_us", "", 200, loop(func() error {
		caps := control.Plan(tenants, runtime.DefaultExitAccuracy, 4e9)
		sink += float64(caps[0])
		return nil
	}))
}

// solvers times the offline algorithms that set-up runs: exit setting on
// the resnet-34 instance, the chain-cut DP and schedule expansion.
func (p *probeSet) solvers() {
	if p.err != nil {
		return
	}
	sys, err := buildModel("resnet-34")
	if err != nil {
		p.err = err
		return
	}
	in, err := exitsetting.NewInstance(sys.MEDNN().Profile, sys.Sigma(), sys.Env())
	if err != nil {
		p.err = err
		return
	}
	p.us("exitsetting.bnb_us", "", 200, loop(func() error { sink += in.BranchAndBound().Cost; return nil }))
	p.us("exitsetting.exhaustive_us", "", 50, loop(func() error { sink += in.Exhaustive().Cost; return nil }))
	e1, e2, _ := sys.Exits()
	p.ns("exitsetting.cost_eval_ns", "", 20000, loop(func() error { sink += in.Cost(e1, e2); return nil }))
	cfg := partition.Config{Net: sys.MEDNN(), Chain: pipelineChain(), ArrivalRate: pipelineRate}
	p.us("partition.solve_us", "", 50, loop(func() error {
		plan, err := partition.Solve(cfg)
		if err == nil {
			sink += plan.ExpectedLatencySec
		}
		return err
	}))
	lcfg := loadgen.Config{EdgeAddr: "unused", Devices: 4, Rate: 60, Duration: 10 * time.Second, Seed: 7, Model: sys.Params()}
	p.us("loadgen.schedule_us", "", 20, loop(func() error {
		s, err := loadgen.Schedule(lcfg)
		sink += float64(len(s))
		return err
	}))
}

// simulate runs the event simulator on device-e2e's configuration and
// reports how fast it runs and the mean TCT it predicts (wall ms at the
// workload's scale, comparable with the live tct_mean_ms).
func simulate(seed int64, slots int) (eventsPerSec, tctMeanMS float64, err error) {
	sys, err := buildModel("inception-v3")
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	res, err := sim.RunEvents(deviceSimConfig(sys, seed, slots))
	if err != nil {
		return 0, 0, err
	}
	return float64(res.Completed) / time.Since(start).Seconds(), res.TCT.Mean() * float64(deviceScale) * 1000, nil
}

// telemetry times recording one span with a live tracer and with tracing
// off (a nil tracer), the per-span budget an always-on ledger must fit.
func (p *probeSet) telemetry() {
	if p.err != nil {
		return
	}
	span := func(tr *telemetry.Tracer) func() error {
		return func() error {
			tr.StartSpan(telemetry.SpanContext{}, "probe").SetTask(1).End()
			return nil
		}
	}
	p.ns("telemetry.span_ns", "", 20000, loop(span(telemetry.NewTracer(1<<12))))
	p.ns("telemetry.span_off_ns", "", 20000, loop(span(nil)))
}
