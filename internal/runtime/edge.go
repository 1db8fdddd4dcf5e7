package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leime/internal/control"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// EdgeConfig configures the edge tier.
type EdgeConfig struct {
	// Addr is the listen address.
	Addr string
	// FLOPS is the edge capability F^e.
	FLOPS float64
	// Policy is the control policy applied to every tenant executor (and
	// the steal slice): backlog budget, deadline admission, EDF ordering,
	// static or adaptive batching, and overload degradation. The backlog
	// budget is rate-relative, so the implied per-tenant capacity follows
	// the KKT share of the edge's FLOPS rating: a tenant with share p
	// admits about MaxBacklogSec * p * FLOPS / mu_b block-b jobs. The zero
	// value disables everything (unbounded FIFO queues, no batching, no
	// degradation).
	Policy ControlPolicy
	// Model is the deployed ME-DNN (block FLOPs, data sizes, exit rates).
	Model offload.ModelParams
	// CloudAddr is the cloud server to forward third-block work to; empty
	// disables the cloud tier (tasks then always exit by the Second exit).
	// The connection is established lazily and survives cloud restarts;
	// while the cloud is unreachable, exit-3 tasks degrade to the Second
	// exit instead of failing.
	CloudAddr string
	// CloudLink shapes the edge–cloud path (the Internet of the testbed).
	CloudLink netem.Link
	// CloudRetry caps re-sends of idempotent requests on the cloud path
	// (zero value = rpc defaults).
	CloudRetry rpc.RetryPolicy
	// CloudBreaker tunes the edge's per-cloud circuit breaker (zero value
	// = rpc defaults).
	CloudBreaker rpc.BreakerConfig
	// TimeScale compresses testbed time.
	TimeScale Scale
	// Peers lists sibling edge addresses in the federation. When set, the
	// edge runs a heartbeat round against them every 100 ms and forwards
	// admission-rejected first-block tasks to the least-loaded ready peer
	// of the last round (work stealing, bounded to one hop).
	Peers []string
	// PeerLink shapes every edge-to-edge path: steals and peer heartbeats
	// to Peers, and the activations a hosted pipeline stage forwards to
	// its next hop. A peer heartbeat rides the same client as the steal
	// and each round is bounded by its 100 ms cadence, so a scaled latency
	// of 100 ms or more leaves no steal candidate. The zero value is an
	// unshaped (instant) link, right for in-process tests.
	PeerLink netem.Link
	// Tracer records task-lifecycle spans for requests that arrive with a
	// trace context; nil disables tracing.
	Tracer *telemetry.Tracer
	// Metrics registers the edge's counters, gauges and histograms; nil
	// disables them (handles degrade to no-ops).
	Metrics *telemetry.Registry
}

// Edge serves first- and second-block work with per-device resource shares
// (the Docker-quota equivalent), recomputing the KKT allocation whenever a
// device registers.
type Edge struct {
	cfg    EdgeConfig
	policy ControlPolicy // cfg.Policy with defaults resolved
	srv    *rpc.Server
	tel    edgeTelemetry

	mu      sync.Mutex
	tenants map[string]*tenant

	cloud *rpc.ReliableClient

	// Federation state: the peer clients, in address order, and their last
	// heartbeat round exist only when Peers is configured; the steal
	// executor always does (it serves StealReqs on the reserved stealShare
	// overflow slice).
	stealExec   *Executor
	peerClients []*rpc.ReliableClient
	peerRound   atomic.Pointer[[]edgeView]
	stopPeers   context.CancelFunc
	peerWG      sync.WaitGroup

	// Pipeline state: installed stages by (pipeline id, stage index) and
	// the shared executor their activations burn compute on. The stage map
	// has its own lock — activations must not contend with the tenant
	// allocation path.
	pipeExec *Executor
	pipeMu   sync.Mutex
	pipes    map[string]map[int]*pipeStage
}

// edgeTelemetry holds the edge's cached metric handles; all of them are
// nil (no-op) when EdgeConfig.Metrics is nil.
type edgeTelemetry struct {
	tracer        *telemetry.Tracer
	reqFirst      *telemetry.Counter
	reqSecond     *telemetry.Counter
	reqControl    *telemetry.Counter
	reqHeartbeat  *telemetry.Counter
	reqSteal      *telemetry.Counter
	reqStage      *telemetry.Counter
	reqActivation *telemetry.Counter
	pipeDegraded  *telemetry.Counter
	stealsOut     *telemetry.Counter
	stealsIn      *telemetry.Counter
	stealFailed   *telemetry.Counter
	overload      *telemetry.Counter
	sheds         *telemetry.Counter
	degradedExit  *telemetry.Counter
	cloudDegraded *telemetry.Counter
	cloudRetries  *telemetry.Counter
	cloudBreaker  *telemetry.Gauge
	tenants       *telemetry.Gauge
	queueWait     *telemetry.Histogram
	block         [2]*telemetry.Histogram // blocks 1 and 2
	stage         *telemetry.Histogram
	cloudCall     *telemetry.Histogram
}

func newEdgeTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) edgeTelemetry {
	const reqHelp = "Requests served by the edge, by type."
	return edgeTelemetry{
		tracer:        tr,
		reqFirst:      reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "first_block"}),
		reqSecond:     reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "second_block"}),
		reqControl:    reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "control"}),
		reqHeartbeat:  reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "heartbeat"}),
		reqSteal:      reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "steal"}),
		reqStage:      reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "stage_install"}),
		reqActivation: reg.Counter("leime_edge_requests_total", reqHelp, telemetry.Label{Key: "type", Value: "activation"}),
		pipeDegraded:  reg.Counter("leime_edge_pipeline_degraded_total", "Pipelined tasks answered from a shallower hosted exit because the next stage was unreachable."),
		stealsOut:     reg.Counter("leime_edge_steals_total", "Tasks moved by work stealing, by direction.", telemetry.Label{Key: "dir", Value: "out"}),
		stealsIn:      reg.Counter("leime_edge_steals_total", "Tasks moved by work stealing, by direction.", telemetry.Label{Key: "dir", Value: "in"}),
		stealFailed:   reg.Counter("leime_edge_steal_failures_total", "Steal attempts that failed (peer rejection or transport error)."),
		overload:      reg.Counter("leime_edge_overload_rejections_total", "Requests rejected by the backlog-budget admission control."),
		sheds:         reg.Counter("leime_edge_deadline_shed_total", "Requests shed because their deadline passed (on arrival or while queued)."),
		degradedExit:  reg.Counter("leime_edge_exit_degraded_total", "Tasks served at a shallower exit by the degradation policy."),
		cloudDegraded: reg.Counter("leime_edge_cloud_degraded_total", "Exit-3 tasks degraded to the Second exit because the cloud was unreachable."),
		cloudRetries:  reg.Counter("leime_edge_cloud_retries_total", "RPC retry attempts against the cloud."),
		cloudBreaker:  reg.Gauge("leime_edge_cloud_breaker_state", "Cloud circuit breaker state (0 closed, 1 half-open, 2 open)."),
		tenants:       reg.Gauge("leime_edge_tenants", "Registered devices."),
		queueWait:     reg.Histogram("leime_edge_queue_wait_seconds", "First/second-block wait before service (wall seconds).", nil),
		block: [2]*telemetry.Histogram{
			reg.Histogram("leime_edge_block_seconds", "Block service time (wall seconds).", nil, telemetry.Label{Key: "block", Value: "1"}),
			reg.Histogram("leime_edge_block_seconds", "Block service time (wall seconds).", nil, telemetry.Label{Key: "block", Value: "2"}),
		},
		stage:     reg.Histogram("leime_edge_stage_seconds", "Pipeline stage service time (wall seconds).", nil),
		cloudCall: reg.Histogram("leime_edge_cloud_call_seconds", "Edge-cloud continuation round trip (wall seconds).", nil),
	}
}

// tenant is the edge-side state of one registered device.
type tenant struct {
	dev   offload.Device
	model offload.ModelParams
	exec  *Executor
	h1    int32 // atomic: pending first-block tasks
	// exitCap is the degradation plan's exit ceiling for this tenant
	// (atomic; 0 = no cap). Tasks requesting a deeper exit are served from
	// the cap's classifier instead.
	exitCap int32
	share   float64
}

// StartEdge launches the edge server. It checks its configuration, links
// included, before it starts anything. A configured cloud is dialed lazily:
// the edge starts (and serves two-exit work) even while the cloud is down.
func StartEdge(cfg EdgeConfig) (*Edge, error) {
	if cfg.FLOPS <= 0 {
		return nil, fmt.Errorf("runtime: edge FLOPS %v must be positive", cfg.FLOPS)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	cloudShaper, err := linkShaper(cfg.CloudLink, cfg.TimeScale, 0x0edc)
	if err != nil {
		return nil, fmt.Errorf("runtime: edge cloud link: %w", err)
	}
	if err := cfg.PeerLink.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: edge peer link: %w", err)
	}
	RegisterMessages()
	e := &Edge{cfg: cfg, policy: withDegradeDefaults(cfg.Policy), tenants: make(map[string]*tenant), pipes: make(map[string]map[int]*pipeStage), tel: newEdgeTelemetry(cfg.Tracer, cfg.Metrics)}
	// The steal executor serves forwarded peer work on the reserved
	// overflow slice under the same policy as the tenant executors: its
	// admission budget keeps a stolen flood from queueing unboundedly, and
	// deadline admission on the slice means a steal lands only where the
	// deadline is still feasible.
	stealExec, err := NewExecutor(stealShare*cfg.FLOPS, cfg.TimeScale, WithPolicy(e.policy))
	if err != nil {
		return nil, err
	}
	e.stealExec = stealExec
	// Pipeline stages ride one shared executor at the full edge rate under
	// the same control policy as every tenant: a pipelined task pays
	// backlog-budget and deadline admission at every stage it crosses, so a
	// chain consumes capacity like any other tenant traffic rather than
	// bypassing the control plane.
	pipeExec, err := NewExecutor(cfg.FLOPS, cfg.TimeScale, WithPolicy(e.policy))
	if err != nil {
		stealExec.Close()
		return nil, err
	}
	e.pipeExec = pipeExec
	if cfg.CloudAddr != "" {
		e.cloud = rpc.DialReliable(cfg.CloudAddr, cloudShaper, rpc.ReliableOptions{
			Retry:   cfg.CloudRetry,
			Breaker: cfg.CloudBreaker,
			OnRetry: func() { e.tel.cloudRetries.Inc() },
			OnBreakerChange: func(s rpc.BreakerState) {
				e.tel.cloudBreaker.Set(float64(s))
			},
		})
	}
	srv, err := rpc.ServeMeta(cfg.Addr, e.handle, rpc.WithShedHook(func() { e.tel.sheds.Inc() }))
	if err != nil {
		if e.cloud != nil {
			_ = e.cloud.Close()
		}
		e.stealExec.Close()
		e.pipeExec.Close()
		return nil, err
	}
	e.srv = srv
	if len(cfg.Peers) > 0 {
		if err := e.startPeers(); err != nil {
			_ = e.Close()
			return nil, err
		}
	}
	// The gauges read this edge, and a registry keeps the first function
	// bound to a name: bind them only once the edge is up, so a failed
	// start leaves them to the next edge on the same registry.
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("leime_edge_ready", "Whether the edge's KKT allocation is warm (1 = ready for task traffic).",
			func() float64 {
				if e.Ready() {
					return 1
				}
				return 0
			})
		cfg.Metrics.GaugeFunc("leime_edge_backlog_seconds", "Edge-wide queued work in seconds across all executors.",
			func() float64 { return e.backlogSeconds() })
	}
	return e, nil
}

// scaleLink compresses a link's delays by the time scale: latency shrinks
// directly, bandwidth grows inversely so serialization time shrinks equally.
func scaleLink(l netem.Link, s Scale) netem.Link {
	if s <= 0 || s == 1 {
		return l
	}
	out := l
	if out.BandwidthBps > 0 {
		out.BandwidthBps /= float64(s)
	}
	out.Latency = s.scaled(out.Latency)
	out.Jitter = s.scaled(out.Jitter)
	return out
}

// linkShaper returns the shaper for a link scaled by s, or nil when the
// scaled link is zero: rpc then dials it unshaped, so its frames are not
// booked one at a time and keep their writev runs.
func linkShaper(l netem.Link, s Scale, seed int64) (*netem.Shaper, error) {
	if l = scaleLink(l, s); l == (netem.Link{}) {
		return nil, nil
	}
	return netem.NewShaper(l, seed)
}

// Addr returns the edge's listen address.
func (e *Edge) Addr() string { return e.srv.Addr() }

func (e *Edge) handle(ctx context.Context, meta rpc.Meta, body any) (any, error) {
	switch req := body.(type) {
	case RegisterReq:
		e.tel.reqControl.Inc()
		return e.register(req)
	case FirstBlockReq:
		e.tel.reqFirst.Inc()
		return e.firstBlock(ctx, meta, req)
	case SecondBlockReq:
		e.tel.reqSecond.Inc()
		return e.secondBlock(ctx, meta, req)
	case UnregisterReq:
		e.tel.reqControl.Inc()
		return e.unregister(req)
	case EdgeStatsReq:
		e.tel.reqControl.Inc()
		return e.stats(), nil
	case HeartbeatReq:
		e.tel.reqHeartbeat.Inc()
		return e.healthResp(req.DeviceID), nil
	case StealReq:
		e.tel.reqSteal.Inc()
		return e.handleSteal(ctx, meta, req)
	case StageInstallReq:
		e.tel.reqStage.Inc()
		return e.stageInstall(req)
	case ActivationReq:
		e.tel.reqActivation.Inc()
		return e.activation(ctx, meta, req)
	default:
		return nil, fmt.Errorf("edge: unexpected request %T", body)
	}
}

// tenantOrder snapshots tenant ids in sorted order alongside their device
// parameters. The KKT allocation's float arithmetic is order-sensitive, so
// handing it map-iteration order would make shares drift run to run; callers
// hold e.mu.
func (e *Edge) tenantOrder() ([]string, []offload.Device) {
	ids := make([]string, 0, len(e.tenants))
	for id := range e.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	devs := make([]offload.Device, len(ids))
	for i, id := range ids {
		devs[i] = e.tenants[id].dev
	}
	return ids, devs
}

// unregister removes a tenant and redistributes its edge share. The tenant's
// executor drains any accepted work and is then released; requests for the
// departed device fail with ErrUnknownDevice.
func (e *Edge) unregister(req UnregisterReq) (any, error) {
	e.mu.Lock()
	t, ok := e.tenants[req.DeviceID]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownDevice, req.DeviceID)
	}
	delete(e.tenants, req.DeviceID)
	remaining := len(e.tenants)
	e.tel.tenants.Set(float64(remaining))
	var err error
	if remaining > 0 {
		err = e.rebalance()
	}
	e.mu.Unlock()
	t.exec.Close()
	if err != nil {
		return nil, fmt.Errorf("edge: reallocation after departure: %w", err)
	}
	return UnregisterResp{RemainingTenants: remaining}, nil
}

// rebalance re-solves the tenancy: the KKT allocation (eq. 27) over the
// sorted tenants, each executor's rate at its new share, then the exit caps.
// Caller holds e.mu and keeps at least one tenant.
func (e *Edge) rebalance() error {
	ids, devs := e.tenantOrder()
	shares, err := offload.Allocate(devs, e.cfg.FLOPS)
	if err != nil {
		return err
	}
	for i, id := range ids {
		t := e.tenants[id]
		t.share = shares[i]
		if err := t.exec.setRate(shares[i] * e.cfg.FLOPS); err != nil {
			return err
		}
	}
	e.recomputeCaps()
	return nil
}

// stats snapshots the edge's tenancy state.
func (e *Edge) stats() EdgeStatsResp {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := EdgeStatsResp{
		Tenants: len(e.tenants),
		Shares:  make(map[string]float64, len(e.tenants)),
	}
	for id, t := range e.tenants {
		out.Shares[id] = t.share
		out.PendingFirstBlock += int(atomic.LoadInt32(&t.h1))
	}
	return out
}

// register admits a device and rebalances every tenant's edge share with the
// KKT allocation (eq. 27).
func (e *Edge) register(req RegisterReq) (any, error) {
	if req.DeviceID == "" {
		return nil, fmt.Errorf("edge: empty device id")
	}
	dev := offload.Device{
		FLOPS:        req.FLOPS,
		BandwidthBps: 1, // placeholder; allocation only uses FLOPS and k_i
		ArrivalMean:  req.ArrivalMean,
	}
	if req.FLOPS <= 0 {
		return nil, fmt.Errorf("edge: device %q FLOPS %v must be positive", req.DeviceID, req.FLOPS)
	}

	model := req.Model
	if model.Validate() != nil {
		// Zero or malformed model: serve this tenant with the edge default.
		model = e.cfg.Model
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	t, exists := e.tenants[req.DeviceID]
	if !exists {
		// Rate fixed below; the control policy (batching, admission, EDF)
		// comes from the edge configuration (no-ops when zero).
		exec, err := NewExecutor(e.cfg.FLOPS, e.cfg.TimeScale, WithPolicy(e.policy))
		if err != nil {
			return nil, err
		}
		t = &tenant{exec: exec}
		e.tenants[req.DeviceID] = t
		e.tel.tenants.Set(float64(len(e.tenants)))
	}
	t.dev = dev
	t.model = model

	if err := e.rebalance(); err != nil {
		return nil, fmt.Errorf("edge: allocation: %w", err)
	}
	return RegisterResp{ShareFLOPS: t.share * e.cfg.FLOPS}, nil
}

// recomputeCaps re-plans per-tenant exit caps from the declared arrival
// rates and calibrated exit profiles whenever the tenancy or its rates
// change. The plan is a pure function of the sorted tenant state, so every
// edge computes the same caps for the same tenancy. Caller holds e.mu.
func (e *Edge) recomputeCaps() {
	if !e.policy.Degrade.Enabled {
		return
	}
	ids, _ := e.tenantOrder()
	// Declared arrival rates are wall-clock tasks per second while the FLOPS
	// budget is model-FLOPs per model second; under time compression one wall
	// second holds 1/TimeScale model seconds, so the wall rate shrinks by the
	// scale factor when expressed against the model-time budget.
	scale := float64(e.cfg.TimeScale)
	if scale <= 0 {
		scale = 1
	}
	demands := make([]control.TenantDemand, len(ids))
	for i, id := range ids {
		t := e.tenants[id]
		demands[i] = control.TenantDemand{
			ID:          id,
			ArrivalRate: t.dev.ArrivalMean * scale,
			BlockFLOPs:  t.model.Mu,
			Sigma:       t.model.Sigma,
		}
	}
	budgetFLOPS := e.policy.Degrade.Utilization * e.cfg.FLOPS
	var caps []int
	if e.policy.Degrade.Blind {
		caps = control.BlindPlan(demands, budgetFLOPS)
	} else {
		caps = control.Plan(demands, e.policy.Degrade.Accuracy, budgetFLOPS)
	}
	for i, id := range ids {
		atomic.StoreInt32(&e.tenants[id].exitCap, int32(caps[i]))
	}
}

// capExit applies the tenant's degradation cap to a requested exit stage
// and reports whether it bit. The caller counts a capped task in
// leime_edge_exit_degraded_total once the edge answers it.
func capExit(t *tenant, exitStage int) (int, bool) {
	ceiling := int(atomic.LoadInt32(&t.exitCap))
	if ceiling > 0 && ceiling < exitStage {
		return ceiling, true
	}
	return exitStage, false
}

// tenantSnapshot returns the tenant plus a copy of its deployed model taken
// under the lock: register rewrites t.model concurrently with task
// handlers, so handlers must work from the snapshot, never t.model.
func (e *Edge) tenantSnapshot(id string) (*tenant, offload.ModelParams, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tenants[id]
	if !ok {
		return nil, offload.ModelParams{}, fmt.Errorf("%w %q", ErrUnknownDevice, id)
	}
	return t, t.model, nil
}

// execErr maps executor failures to their wire classification: a context
// expiry inside the queue becomes the rpc deadline sentinel (counted as a
// shed — the work was abandoned unburned because its propagated deadline
// passed while it waited), and an admission rejection stays ErrOverloaded
// with its counter bumped so saturation is visible in telemetry.
func (e *Edge) execErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		e.tel.sheds.Inc()
		return fmt.Errorf("edge: queued work shed: %w", rpc.ErrDeadlineExceeded)
	}
	if errors.Is(err, ErrOverloaded) {
		e.tel.overload.Inc()
		return fmt.Errorf("edge: admission: %w", err)
	}
	return err
}

// edgeBlockSpans names the spans of blocks 1 and 2 served at the edge.
var edgeBlockSpans = [2]string{"edge.block1", "edge.block2"}

// serveBlock burns one block of flops for a task on x and records it: the
// queue-wait histogram, the block's service histogram hist, and an
// edge.queue span plus a span named name under the caller's trace. An
// executor failure comes back unmapped, so firstBlock can try a steal
// before execErr counts the rejection.
func (e *Edge) serveBlock(ctx context.Context, meta rpc.Meta, x *Executor, flops float64, hist *telemetry.Histogram, name, device string, task uint64) error {
	wait, service, err := x.DoTimedCtx(ctx, flops)
	if err != nil {
		return err
	}
	e.tel.queueWait.Observe(wait.Seconds())
	hist.Observe(service.Seconds())
	recordTimedSpans(e.tel.tracer, metaContext(meta), "edge.queue", name, device, task, wait, service)
	return nil
}

// firstBlock runs block 1 of an offloaded raw task on the tenant's
// executor, applying admission control on its backlog, and continues the
// task through serveTask. A refused block 1 is offered to a peer before
// the refusal goes back to the device; the peer serves the task at the
// tenant's capped exit.
func (e *Edge) firstBlock(ctx context.Context, meta rpc.Meta, req FirstBlockReq) (any, error) {
	t, model, err := e.tenantSnapshot(req.DeviceID)
	if err != nil {
		return nil, err
	}
	exit, capped := capExit(t, req.ExitStage)
	atomic.AddInt32(&t.h1, 1)
	err = e.serveBlock(ctx, meta, t.exec, model.Mu[0], e.tel.block[0], edgeBlockSpans[0], req.DeviceID, req.TaskID)
	atomic.AddInt32(&t.h1, -1)
	var resp any
	switch {
	case err == nil:
		resp, err = e.serveTask(ctx, meta, t.exec, model, req.DeviceID, req.TaskID, 2, exit)
	case errors.Is(err, ErrOverloaded):
		// The admission budget is exhausted: before bouncing the task back
		// to the device, try to place it on the least-loaded ready peer
		// (the work never started here, so forwarding is safe).
		resp, err = e.trySteal(ctx, meta, req, model, exit, err)
	default:
		return nil, e.execErr(err)
	}
	if err == nil && capped {
		e.tel.degradedExit.Inc()
	}
	return resp, err
}

// secondBlock continues a task whose first block ran on the device.
func (e *Edge) secondBlock(ctx context.Context, meta rpc.Meta, req SecondBlockReq) (any, error) {
	t, model, err := e.tenantSnapshot(req.DeviceID)
	if err != nil {
		return nil, err
	}
	exit, capped := capExit(t, req.ExitStage)
	resp, err := e.serveTask(ctx, meta, t.exec, model, req.DeviceID, req.TaskID, 2, exit)
	if err == nil && capped {
		e.tel.degradedExit.Inc()
	}
	return resp, err
}

// serveTask runs blocks from..min(exit, 2) of a task on x and hands an
// exit-3 task on to the cloud; it answers with the exit the task left
// through. A task whose exit comes before block from is answered from the
// exit the caller already computed: a tenant the degradation plan caps at
// exit 1 skips block 2, the edge compute the plan reclaimed. A capacity
// refusal of block 2 names its block (errBlock2Refused). When the
// cloud is absent or unreachable (transport failure or open breaker), an
// exit-3 task degrades to the Second exit instead of failing: an accuracy
// hit, not an availability hit — the multi-exit architecture's
// graceful-degradation dividend.
func (e *Edge) serveTask(ctx context.Context, meta rpc.Meta, x *Executor, model offload.ModelParams, dev string, task uint64, from, exit int) (any, error) {
	last := min(max(exit, 1), 2)
	for b := from; b <= last; b++ {
		if err := e.serveBlock(ctx, meta, x, model.Mu[b-1], e.tel.block[b-1], edgeBlockSpans[b-1], dev, task); err != nil {
			if b == 2 && errors.Is(err, ErrOverloadCapacity) {
				err = fmt.Errorf("%w: %w", errBlock2Refused, err)
			}
			return nil, e.execErr(err)
		}
	}
	if exit <= 2 || e.cloud == nil {
		return TaskResp{TaskID: task, ExitStage: last}, nil
	}
	start := time.Now()
	resp, err := e.forward(ctx, meta, e.cloud, "rpc.cloud", dev, task, ThirdBlockReq{TaskID: task, Payload: zeroPayload(int(model.D[2])), FLOPs: model.Mu[2]})
	e.tel.cloudCall.Observe(time.Since(start).Seconds())
	if err != nil {
		if _, unreachable, _ := hopVerdict(err); unreachable {
			e.tel.cloudDegraded.Inc()
			return TaskResp{TaskID: task, ExitStage: 2}, nil
		}
		return nil, err
	}
	return resp, nil
}

// forward sends one task's request to the next tier over c — the cloud, a
// steal peer or the next pipeline stage — under a span named name, bounds
// the call by the handler's deadline, and checks that the reply is a
// TaskResp. A failure is noted on the span; the caller decides whether
// the task degrades.
func (e *Edge) forward(ctx context.Context, meta rpc.Meta, c *rpc.ReliableClient, name, dev string, task uint64, req any) (TaskResp, error) {
	var span *telemetry.Active
	if tctx := metaContext(meta); tctx.Valid() {
		span = e.tel.tracer.StartSpan(tctx, name).SetDevice(dev).SetTask(task)
	}
	ctx, cancel := forwardCtx(ctx)
	defer cancel()
	got, err := c.CallMeta(ctx, spanMeta(span), req)
	if err != nil {
		span.SetNote(err.Error()).End()
		return TaskResp{}, fmt.Errorf("edge: %s: %w", name, err)
	}
	span.End()
	resp, ok := got.(TaskResp)
	if !ok {
		return TaskResp{}, fmt.Errorf("edge: unexpected %s reply %T", name, got)
	}
	return resp, nil
}

// forwardCtx arms the timer an rpc handler's context leaves out: the
// handler's deadline is a value, so a handler about to wait on the network
// for another tier bounds that wait at the same deadline itself.
func forwardCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d, ok := ctx.Deadline(); ok {
		return context.WithDeadline(ctx, d)
	}
	return ctx, func() {}
}

// Close stops serving, releases tenant executors, the steal executor, the
// peer heartbeat round, the peer clients and the cloud client.
func (e *Edge) Close() error {
	err := e.srv.Close()
	if e.stopPeers != nil {
		e.stopPeers()
		e.peerWG.Wait()
	}
	e.mu.Lock()
	for _, t := range e.tenants {
		t.exec.Close()
	}
	e.mu.Unlock()
	e.stealExec.Close()
	e.pipeExec.Close()
	e.closePipelines()
	for _, c := range e.peerClients {
		_ = c.Close()
	}
	if e.cloud != nil {
		if cerr := e.cloud.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
