package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"leime/internal/fleet"
	"leime/internal/metrics"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// DeviceConfig configures one end-device agent.
type DeviceConfig struct {
	// ID uniquely names the device at the edge.
	ID string
	// FLOPS is the device capability F_i^d.
	FLOPS float64
	// Model is the deployed ME-DNN.
	Model offload.ModelParams
	// EdgeAddr is the edge server address.
	EdgeAddr string
	// EdgeAddrs, when it lists more than one address, puts the device in
	// federation mode: it heartbeats every edge, folds their advertised
	// backlog and capacity into the Lyapunov drift term, and migrates its
	// tenancy to the edge minimizing drift-plus-penalty each decision epoch.
	// A single entry is equivalent to EdgeAddr. Supersedes EdgeAddr when set.
	EdgeAddrs []string
	// Fleet tunes the device's heartbeat poller over EdgeAddrs (zero value =
	// fleet defaults, except Every which defaults to one scaled slot).
	Fleet fleet.Config
	// SwitchMargin is the hysteresis for edge migration: the device leaves
	// its current edge only when the best alternative improves the selection
	// objective by more than this fraction. Zero means the 0.05 default.
	SwitchMargin float64
	// PipelineAddrs, when non-empty, puts the device in pipelined mode: it
	// installs Pipeline on the listed edge workers (stage j at address j),
	// sends every task into the first stage, and never consults the
	// offloading policy (the chain-cut solver decided placement offline, so
	// the per-slot decision is always offload). Supersedes EdgeAddr and
	// EdgeAddrs when set.
	PipelineAddrs []string
	// Pipeline is the stage specs to install, one per PipelineAddrs entry —
	// normally PipelineFromPlan of a partition solve.
	Pipeline []PipelineStage
	// PipelineID names the installed chain; empty defaults to the device ID
	// so concurrent devices do not clobber each other's stages.
	PipelineID string
	// Uplink shapes the device–edge path (the WiFi of the testbed).
	Uplink netem.Link
	// Arrivals yields per-slot task counts; nil defaults to Poisson with
	// ArrivalMean.
	Arrivals trace.Process
	// ArrivalMean is k_i, used for registration and the default process.
	ArrivalMean float64
	// Policy decides per-slot offloading; nil defaults to LEIME's Lyapunov
	// policy.
	Policy *offload.Policy
	// TauSec is the slot length (model seconds).
	TauSec float64
	// V is the Lyapunov penalty weight.
	V float64
	// Slots is the number of slots to generate.
	Slots int
	// WarmupSlots excludes early tasks from the statistics.
	WarmupSlots int
	// TimeScale compresses testbed time.
	TimeScale Scale
	// AdaptEvery, when positive, makes the device report an exponentially
	// weighted estimate of its observed arrival rate to the edge every
	// AdaptEvery slots; the edge re-solves the KKT allocation and the device
	// adopts the returned share (the runtime fine-tuning loop).
	AdaptEvery int
	// TaskDeadlineSec, when positive, is each task's time budget in model
	// seconds: the deadline travels with every rpc the task issues so the
	// edge and cloud shed work that can no longer finish in time, and a
	// task that misses it is counted in DeadlineMisses. Zero disables
	// deadlines.
	TaskDeadlineSec float64
	// Retry caps re-sends of idempotent control-plane requests after
	// transport failures (zero value = rpc defaults).
	Retry rpc.RetryPolicy
	// Breaker tunes the device's per-edge circuit breaker (zero value =
	// rpc defaults). While the breaker is not closed, offload decisions
	// are overridden to device-only.
	Breaker rpc.BreakerConfig
	// Seed drives arrival, exit and offloading randomness.
	Seed int64
	// Tracer records per-task lifecycle spans and propagates their context
	// to the edge and cloud through the rpc envelope; nil disables tracing.
	Tracer *telemetry.Tracer
	// Metrics registers the device's counters and histograms; nil disables
	// them.
	Metrics *telemetry.Registry
	// Stop, when non-nil, aborts task generation at the next slot boundary
	// once the channel is closed; tasks already in flight drain before
	// RunDevice returns (the SIGINT/SIGTERM path of cmd/leime-device).
	Stop <-chan struct{}
	// Ready, when non-nil, is called once after the device has registered at
	// an edge and adopted its first share — the /readyz hook of
	// cmd/leime-device.
	Ready func()
}

// Validate reports whether the configuration is runnable.
func (c DeviceConfig) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("runtime: device needs an ID")
	}
	if c.FLOPS <= 0 {
		return fmt.Errorf("runtime: device FLOPS %v must be positive", c.FLOPS)
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.EdgeAddr == "" && len(c.EdgeAddrs) == 0 && len(c.PipelineAddrs) == 0 {
		return fmt.Errorf("runtime: device needs an edge address")
	}
	if len(c.PipelineAddrs) > 0 && len(c.Pipeline) != len(c.PipelineAddrs) {
		return fmt.Errorf("runtime: %d pipeline stages for %d addresses", len(c.Pipeline), len(c.PipelineAddrs))
	}
	if err := c.Uplink.Validate(); err != nil {
		return err
	}
	if c.TauSec <= 0 || c.V <= 0 {
		return fmt.Errorf("runtime: TauSec (%v) and V (%v) must be positive", c.TauSec, c.V)
	}
	if c.Slots <= 0 || c.WarmupSlots < 0 || c.WarmupSlots >= c.Slots {
		return fmt.Errorf("runtime: bad horizon (slots=%d, warmup=%d)", c.Slots, c.WarmupSlots)
	}
	if c.TaskDeadlineSec < 0 {
		return fmt.Errorf("runtime: task deadline %v must be non-negative", c.TaskDeadlineSec)
	}
	return nil
}

// DeviceStats is the outcome of one device run.
type DeviceStats struct {
	// TCT summarizes post-warmup end-to-end completion times, in model
	// seconds (wall time divided by the time scale).
	TCT metrics.Summary
	// Ratio is the per-slot offloading decision.
	Ratio metrics.Series
	// ExitCounts tallies completions by exit stage.
	ExitCounts [3]int
	// LocalStage summarizes per-task time spent on the device CPU (queueing
	// plus first-block service), in model seconds; zero entries for fully
	// offloaded tasks are included.
	LocalStage metrics.Summary
	// RemoteStage summarizes per-task time spent beyond the device (uplink,
	// edge queueing/compute, cloud), in model seconds.
	RemoteStage metrics.Summary
	// Generated and Completed count tasks.
	Generated, Completed int
	// Errors counts tasks that failed; zero in healthy runs. Deadline
	// misses are included here and broken out in DeadlineMisses.
	Errors int
	// Fallbacks counts offloaded tasks the edge rejected with backpressure
	// that were re-run locally instead.
	Fallbacks int
	// Degraded counts tasks completed entirely on the device because the
	// edge was unreachable or the circuit breaker was open — the
	// graceful-degradation path.
	Degraded int
	// DeadlineMisses counts tasks that ran out of their TaskDeadlineSec
	// budget.
	DeadlineMisses int
	// Retries counts rpc retry attempts issued by the reliability layer.
	Retries int
	// BreakerOpens counts circuit-breaker open transitions during the run.
	BreakerOpens int
	// Migrations counts edge re-selections in federation mode: each one is a
	// tenancy move (register at the new edge, unregister at the old).
	Migrations int
}

// RunDevice executes the full device lifecycle: register at the edge,
// generate tasks slot by slot, decide offloading online, execute and collect
// completion statistics. It returns when every generated task finishes.
//
// The device is fault-tolerant: the edge connection re-dials and
// re-registers after a loss, idempotent control requests are retried with
// backoff, and a circuit breaker trips after consecutive transport failures
// — while it is not closed, offload decisions are overridden to device-only
// and every task runs its blocks locally (counted in DeviceStats.Degraded).
func RunDevice(cfg DeviceConfig) (*DeviceStats, error) {
	// A one-element edge list is plain single-edge operation: no heartbeat
	// poller, no migration machinery, behaviour identical to EdgeAddr.
	if len(cfg.EdgeAddrs) == 1 {
		cfg.EdgeAddr, cfg.EdgeAddrs = cfg.EdgeAddrs[0], nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	RegisterMessages()

	arrivals := cfg.Arrivals
	if arrivals == nil {
		p, err := trace.NewPoisson(cfg.ArrivalMean, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		arrivals = p
	}
	policy := offload.Lyapunov()
	if cfg.Policy != nil {
		policy = *cfg.Policy
	}
	ctrl, err := offload.NewController(offload.Config{Model: cfg.Model, TauSec: cfg.TauSec, V: cfg.V})
	if err != nil {
		return nil, err
	}
	local, err := NewExecutor(cfg.FLOPS, cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	defer local.Close()

	dev := offload.Device{
		FLOPS:        cfg.FLOPS,
		BandwidthBps: cfg.Uplink.BandwidthBps,
		LatencySec:   cfg.Uplink.Latency.Seconds(),
		ArrivalMean:  cfg.ArrivalMean,
	}

	d := &deviceRun{
		cfg:   cfg,
		local: local,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x7a5)),
		tel:   newDeviceTelemetry(cfg.ID, cfg.Tracer, cfg.Metrics),
	}
	d.rateEstimate = cfg.ArrivalMean

	if len(cfg.PipelineAddrs) > 0 {
		// Pipelined mode: push the chain (stage installs are idempotent
		// upserts, so a re-run repairs a restarted worker) and dial the
		// first stage. No tenancy, no KKT share — the chain's capacity was
		// priced by the partition solver.
		installCtx, installCancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
		err := InstallPipeline(installCtx, d.pipelineID(), cfg.PipelineAddrs, cfg.Pipeline)
		installCancel()
		if err != nil {
			return nil, err
		}
		pipe, err := DialPipeline(PipelineClientConfig{
			Addr:       cfg.PipelineAddrs[0],
			PipelineID: d.pipelineID(),
			DeviceID:   cfg.ID,
			InputBytes: cfg.Model.D[0],
			Uplink:     cfg.Uplink,
			TimeScale:  cfg.TimeScale,
			Seed:       cfg.Seed,
			Retry:      cfg.Retry,
			Breaker:    cfg.Breaker,
		})
		if err != nil {
			return nil, err
		}
		d.pipe = pipe
		defer pipe.Close()
	} else if len(cfg.EdgeAddrs) > 1 {
		me, err := startMultiEdge(d)
		if err != nil {
			return nil, err
		}
		d.multi = me
		defer me.close()
	} else {
		shaper, err := netem.NewShaper(scaleLink(cfg.Uplink, cfg.TimeScale), cfg.Seed^0xde)
		if err != nil {
			return nil, err
		}
		client := rpc.DialReliable(cfg.EdgeAddr, shaper, rpc.ReliableOptions{
			Retry:   cfg.Retry,
			Breaker: cfg.Breaker,
			// Re-establish the session on every (re)connection: a restarted
			// edge has no tenant state, so the device re-registers with its
			// live rate estimate and adopts the fresh share before any other
			// call proceeds. This keeps the Lyapunov inputs consistent across
			// reconnects — the new edge's backlog observation starts at zero,
			// matching its actual empty queues.
			OnConnect: func(ctx context.Context, c *rpc.Client) error {
				got, err := c.Call(ctx, RegisterReq{DeviceID: cfg.ID, FLOPS: cfg.FLOPS, ArrivalMean: d.rate(), Model: cfg.Model})
				if err != nil {
					return err
				}
				if resp, ok := got.(RegisterResp); ok && resp.ShareFLOPS > 0 {
					d.setShare(resp.ShareFLOPS)
				}
				return nil
			},
			OnRetry:         d.onRetry,
			OnBreakerChange: d.onBreakerChange,
			Seed:            cfg.Seed ^ 0x9e77,
		})
		d.clientP.Store(client)
		defer client.Close()

		// The first call both connects and registers (via OnConnect); an edge
		// that is down or rejects the registration fails the run up front,
		// exactly like the pre-fault-tolerance behaviour.
		regCtx, regCancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
		_, err = client.Call(regCtx, QueueStatReq{DeviceID: cfg.ID})
		regCancel()
		if err != nil {
			return nil, fmt.Errorf("runtime: register: %w", err)
		}
	}
	if cfg.Ready != nil {
		cfg.Ready()
	}

	start := time.Now()
	var taskID uint64
slots:
	for t := 0; t < cfg.Slots; t++ {
		// Align to the slot boundary on the compressed clock, but give up
		// the wait (and the rest of the horizon) if asked to stop.
		boundary := start.Add(cfg.TimeScale.Seconds(float64(t) * cfg.TauSec))
		if wait := time.Until(boundary); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-cfg.Stop:
				timer.Stop()
				break slots
			}
		}
		select {
		case <-cfg.Stop:
			break slots
		default:
		}
		m := arrivals.Next()
		// Track the observed rate and periodically renegotiate the edge
		// share so the allocation follows the live workload.
		const ewma = 0.15
		d.setRate((1-ewma)*d.rate() + ewma*float64(m))
		if cfg.AdaptEvery > 0 && d.pipe == nil && t > 0 && t%cfg.AdaptEvery == 0 {
			ctx, cancel := d.controlCtx()
			if got, err := d.edgeClient().Call(ctx, UpdateReq{DeviceID: cfg.ID, ArrivalMean: d.rate()}); err == nil {
				if resp, ok := got.(RegisterResp); ok && resp.ShareFLOPS > 0 {
					d.setShare(resp.ShareFLOPS)
				}
			}
			cancel()
		}
		var x float64
		if d.pipe != nil {
			// The chain-cut solver decided placement offline: every task
			// enters the pipeline, so the per-slot decision is constant.
			x = 1
		} else if d.multi != nil {
			x = d.multi.step(ctrl, policy, dev, float64(m), float64(local.Pending()))
		} else {
			slot := offload.Slot{
				Arrivals:       float64(m),
				State:          offload.State{Q: float64(local.Pending()), H: float64(d.edgeBacklog())},
				EdgeShareFLOPS: d.share(),
			}
			x = policy.Decide(ctrl, dev, slot)
			if d.edgeClient().Breaker().State() != rpc.BreakerClosed {
				// The edge is suspect: override the decision to device-only
				// until the breaker's half-open probe (a control-plane call)
				// confirms recovery.
				x = 0
			}
		}
		d.tel.ratio.Set(x)
		d.tel.generated.Add(uint64(m))
		d.mu.Lock()
		d.stats.Ratio.Append(x)
		d.stats.Generated += m
		d.mu.Unlock()
		for j := 0; j < m; j++ {
			taskID++
			d.wg.Add(1)
			go d.runTask(taskID, t, d.rngExit(), d.rngCoin() < x)
		}
	}
	d.wg.Wait()
	d.mu.Lock()
	stats := d.stats
	d.mu.Unlock()
	return &stats, nil
}

// deviceRun is the mutable state of one device lifecycle.
type deviceRun struct {
	cfg       DeviceConfig
	clientP   atomic.Pointer[rpc.ReliableClient] // current edge; swapped on migration
	multi     *multiEdge                         // nil outside federation mode
	pipe      *PipelineClient                    // nil outside pipelined mode
	local     *Executor
	tel       deviceTelemetry
	shareBits uint64 // atomic float64 bits: current edge share (FLOPS)

	mu           sync.Mutex
	rateEstimate float64
	stats        DeviceStats
	rngMu        sync.Mutex
	rng          *rand.Rand
	wg           sync.WaitGroup
}

// pipelineID resolves the configured chain name, defaulting to the device
// ID so concurrently pipelined devices keep disjoint stage maps.
func (d *deviceRun) pipelineID() string {
	if d.cfg.PipelineID != "" {
		return d.cfg.PipelineID
	}
	return d.cfg.ID
}

// edgeClient is the client of the device's current edge; tasks and control
// calls read it at issue time, so a migration redirects subsequent calls
// without disturbing those in flight.
func (d *deviceRun) edgeClient() *rpc.ReliableClient {
	return d.clientP.Load()
}

// onRetry feeds the rpc reliability layer's retry events into stats; shared
// by every edge client the device dials.
func (d *deviceRun) onRetry() {
	d.tel.retries.Inc()
	d.mu.Lock()
	d.stats.Retries++
	d.mu.Unlock()
}

// onBreakerChange mirrors breaker transitions into telemetry; in federation
// mode all edges share the handler, so the state gauge reflects the most
// recent transition on any of them.
func (d *deviceRun) onBreakerChange(s rpc.BreakerState) {
	d.tel.breakerState.Set(float64(s))
	if s == rpc.BreakerOpen {
		d.tel.breakerOpens.Inc()
		d.mu.Lock()
		d.stats.BreakerOpens++
		d.mu.Unlock()
	}
}

func (d *deviceRun) share() float64 {
	return math.Float64frombits(atomic.LoadUint64(&d.shareBits))
}

func (d *deviceRun) setShare(f float64) {
	atomic.StoreUint64(&d.shareBits, math.Float64bits(f))
}

func (d *deviceRun) rate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rateEstimate
}

func (d *deviceRun) setRate(r float64) {
	d.mu.Lock()
	d.rateEstimate = r
	d.mu.Unlock()
}

// controlCtx bounds one control-plane exchange (queue stats, rate updates):
// generous on the compressed clock, but never hanging a slot forever on a
// dead edge.
func (d *deviceRun) controlCtx() (context.Context, context.CancelFunc) {
	timeout := d.cfg.TimeScale.Seconds(10 * d.cfg.TauSec)
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	return context.WithTimeout(context.Background(), timeout)
}

// taskCtx derives one task's context from its deadline budget; the returned
// cancel must run when the task finishes.
func (d *deviceRun) taskCtx() (context.Context, context.CancelFunc) {
	if d.cfg.TaskDeadlineSec <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithDeadline(context.Background(), time.Now().Add(d.cfg.TimeScale.Seconds(d.cfg.TaskDeadlineSec)))
}

// deviceTelemetry holds the device's cached metric handles; all nil
// (no-op) when DeviceConfig.Metrics is nil.
type deviceTelemetry struct {
	tracer       *telemetry.Tracer
	generated    *telemetry.Counter
	completed    [3]*telemetry.Counter // by exit stage
	errors       *telemetry.Counter
	fallbacks    *telemetry.Counter
	degraded     *telemetry.Counter
	deadlineMiss *telemetry.Counter
	retries      *telemetry.Counter
	breakerOpens *telemetry.Counter
	breakerState *telemetry.Gauge
	migrations   *telemetry.Counter
	curEdge      *telemetry.Gauge
	tct          *telemetry.Histogram
	ratio        *telemetry.Gauge
}

func newDeviceTelemetry(id string, tr *telemetry.Tracer, reg *telemetry.Registry) deviceTelemetry {
	dev := telemetry.Label{Key: "device", Value: id}
	t := deviceTelemetry{
		tracer:       tr,
		generated:    reg.Counter("leime_tasks_generated_total", "Tasks generated.", dev),
		errors:       reg.Counter("leime_task_errors_total", "Tasks failed with RPC errors.", dev),
		fallbacks:    reg.Counter("leime_task_fallbacks_total", "Offloads rejected by edge backpressure and re-run locally.", dev),
		degraded:     reg.Counter("leime_tasks_degraded_total", "Tasks completed device-only because the edge was unreachable.", dev),
		deadlineMiss: reg.Counter("leime_task_deadline_missed_total", "Tasks that ran out of their deadline budget.", dev),
		retries:      reg.Counter("leime_rpc_retries_total", "RPC retry attempts against the edge.", dev),
		breakerOpens: reg.Counter("leime_breaker_opens_total", "Circuit breaker open transitions.", dev),
		breakerState: reg.Gauge("leime_breaker_state", "Edge circuit breaker state (0 closed, 1 half-open, 2 open).", dev),
		migrations:   reg.Counter("leime_device_migrations_total", "Edge re-selections (tenancy moves) in federation mode.", dev),
		curEdge:      reg.Gauge("leime_device_edge", "Index of the device's current edge in its configured fleet.", dev),
		tct:          reg.Histogram("leime_tct_seconds", "End-to-end task completion time (model seconds).", nil, dev),
		ratio:        reg.Gauge("leime_offload_ratio", "Most recent slot's offloading decision.", dev),
	}
	for i := range t.completed {
		t.completed[i] = reg.Counter("leime_tasks_completed_total", "Tasks completed, by exit stage.",
			dev, telemetry.Label{Key: "exit", Value: string(rune('1' + i))})
	}
	return t
}

func (d *deviceRun) rngExit() int {
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	r := d.rng.Float64()
	switch {
	case r < d.cfg.Model.Sigma[0]:
		return 1
	case r < d.cfg.Model.Sigma[1]:
		return 2
	default:
		return 3
	}
}

func (d *deviceRun) rngCoin() float64 {
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	return d.rng.Float64()
}

// edgeBacklog asks the edge how many of this device's first-block tasks are
// pending (the H_i observation of the controller). While the breaker is
// half-open this idempotent call doubles as the recovery probe; on any
// failure the observation degrades to zero, matching the device-only
// override that accompanies a non-closed breaker.
func (d *deviceRun) edgeBacklog() int {
	ctx, cancel := d.controlCtx()
	defer cancel()
	got, err := d.edgeClient().Call(ctx, QueueStatReq{DeviceID: d.cfg.ID})
	if err != nil {
		return 0
	}
	resp, ok := got.(QueueStatResp)
	if !ok {
		return 0
	}
	return resp.PendingFirstBlock
}

// degradable reports whether an edge call failed in a way the device can
// absorb by running the remaining blocks itself: the peer is unreachable,
// the circuit breaker is open, the link injected a fault, a restarted edge
// lost this device's tenant state, or the edge answered mid-shutdown with
// its executors already draining.
func degradable(err error) bool {
	return errors.Is(err, rpc.ErrPeerUnavailable) || errors.Is(err, rpc.ErrCircuitOpen) ||
		errors.Is(err, rpc.ErrClosed) || errors.Is(err, netem.ErrInjected) ||
		errors.Is(err, ErrUnknownDevice) || errors.Is(err, ErrExecutorClosed)
}

// backpressured reports whether the edge refused work because it is
// saturated — the per-tenant pending cap (ErrBusy) or the backlog-budget
// admission control (ErrOverloaded). Both are degrade-to-local signals: the
// work never started, so the device re-runs the blocks itself rather than
// retrying against an overloaded server. ErrDeadlineInfeasible also unwraps
// to ErrOverloaded, so callers that shed deadline-doomed tasks instead of
// falling back must test for it BEFORE consulting this classifier.
func backpressured(err error) bool {
	return errors.Is(err, ErrBusy) || errors.Is(err, ErrOverloaded)
}

// runTask executes one task end-to-end and records its completion time.
func (d *deviceRun) runTask(id uint64, slot, exitStage int, offloaded bool) {
	defer d.wg.Done()
	began := time.Now()
	ctx, cancel := d.taskCtx()
	defer cancel()

	// The root span covers the whole task; the zero-length decision span
	// marks where the Lyapunov policy routed it.
	root := d.tel.tracer.StartSpan(telemetry.SpanContext{}, "task").SetDevice(d.cfg.ID).SetTask(id)
	decision := "local"
	if offloaded {
		decision = "offload"
	}
	d.tel.tracer.StartSpan(root.Context(), "device.decision").
		SetDevice(d.cfg.ID).SetTask(id).SetNote(decision).End()

	var err error
	var finalExit int
	var localDur time.Duration
	fellBack, degraded := false, false
	if offloaded {
		if d.pipe != nil {
			finalExit, err = d.pipelinedPath(ctx, root.Context(), id, exitStage)
		} else {
			finalExit, err = d.offloadedPath(ctx, root.Context(), id, exitStage)
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrDeadlineInfeasible):
			// Deadline admission proved the task cannot finish in time even
			// if accepted; the device CPU is slower still, so re-running
			// locally would only burn cycles past the deadline. Shed now and
			// account it as a deadline miss, not a fallback.
			err = fmt.Errorf("runtime: edge shed the task: %w (%v)", rpc.ErrDeadlineExceeded, err)
		case backpressured(err) && d.pipe != nil:
			// The chain's entry stage applied backpressure; there is no
			// tenancy to continue under, so re-run every block locally.
			fellBack = true
			localDur, err = d.runLocalBlocks(ctx, root.Context(), id, 1, exitStage)
			if err == nil {
				finalExit = exitStage
			}
		case backpressured(err):
			// The edge applied backpressure (pending-task cap or admission
			// backlog budget): execute locally instead.
			fellBack = true
			var fb bool
			finalExit, localDur, fb, degraded, err = d.localPath(ctx, root.Context(), id, exitStage)
			fellBack = fellBack || fb
		case degradable(err) || errors.Is(err, ErrUnknownPipeline):
			// The edge (or chain entry stage) is unreachable: run every
			// block on the device.
			degraded = true
			localDur, err = d.runLocalBlocks(ctx, root.Context(), id, 1, exitStage)
			if err == nil {
				finalExit = exitStage
			}
		}
	} else {
		finalExit, localDur, fellBack, degraded, err = d.localPath(ctx, root.Context(), id, exitStage)
	}

	deadlineMissed := err != nil && errors.Is(err, rpc.ErrDeadlineExceeded)
	if fellBack {
		root.SetNote("fallback")
		d.tel.fallbacks.Inc()
	}
	if degraded {
		root.SetNote("degraded")
		d.tel.degraded.Inc()
	}
	if err != nil {
		root.SetNote("error: " + err.Error())
		d.tel.errors.Inc()
		if deadlineMissed {
			d.tel.deadlineMiss.Inc()
		}
	} else {
		d.tel.tracer.StartSpan(root.Context(), "exit").
			SetDevice(d.cfg.ID).SetTask(id).SetExit(finalExit).End()
		root.SetExit(finalExit)
		if finalExit >= 1 && finalExit <= 3 {
			d.tel.completed[finalExit-1].Inc()
		}
	}
	root.End()

	scale := float64(d.cfg.TimeScale)
	if scale <= 0 {
		scale = 1
	}
	elapsed := time.Since(began).Seconds() / scale
	if err == nil {
		d.tel.tct.Observe(elapsed)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.stats.Errors++
		if deadlineMissed {
			d.stats.DeadlineMisses++
		}
		d.stats.Completed++ // still accounted; latency excluded
		return
	}
	d.stats.Completed++
	d.stats.ExitCounts[finalExit-1]++
	if fellBack {
		d.stats.Fallbacks++
	}
	if degraded {
		d.stats.Degraded++
	}
	if slot >= d.cfg.WarmupSlots {
		local := localDur.Seconds() / scale
		d.stats.TCT.Add(elapsed)
		d.stats.LocalStage.Add(local)
		d.stats.RemoteStage.Add(elapsed - local)
	}
}

// runLocalBlocks burns blocks first..last on the device CPU — the degraded
// path when the edge cannot serve them. It returns the wall time spent.
func (d *deviceRun) runLocalBlocks(ctx context.Context, parent telemetry.SpanContext, id uint64, first, last int) (time.Duration, error) {
	start := time.Now()
	for b := first; b <= last && b <= len(d.cfg.Model.Mu); b++ {
		wait, service, err := d.local.DoTimedCtx(ctx, d.cfg.Model.Mu[b-1])
		if err != nil {
			return time.Since(start), localErr(err)
		}
		recordTimedSpans(d.tel.tracer, parent, "device.queue", fmt.Sprintf("device.block%d", b), d.cfg.ID, id, wait, service)
	}
	return time.Since(start), nil
}

// localErr maps an executor context failure to the rpc deadline sentinel so
// local and remote deadline misses classify identically.
func localErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("runtime: local execution: %w", rpc.ErrDeadlineExceeded)
	}
	return err
}

// localPath runs block 1 on the device CPU, then continues at the edge if
// the task survives the First exit. It returns the final exit, the time
// spent on the device (queueing plus service), whether the edge refused the
// continuation with backpressure (fellBack — the blocks re-ran locally),
// and whether it had to degrade to device-only execution because the edge
// became unreachable.
func (d *deviceRun) localPath(ctx context.Context, parent telemetry.SpanContext, id uint64, exitStage int) (finalExit int, localDur time.Duration, fellBack, degraded bool, err error) {
	start := time.Now()
	wait, service, err := d.local.DoTimedCtx(ctx, d.cfg.Model.Mu[0])
	if err != nil {
		return 0, 0, false, false, localErr(err)
	}
	recordTimedSpans(d.tel.tracer, parent, "device.queue", "device.block1", d.cfg.ID, id, wait, service)
	localDur = time.Since(start)
	if exitStage <= 1 {
		return 1, localDur, false, false, nil
	}
	payload := zeroPayload(int(d.cfg.Model.D[1]))
	span := d.tel.tracer.StartSpan(parent, "rpc.second_block").SetDevice(d.cfg.ID).SetTask(id)
	got, err := d.edgeClient().CallMeta(ctx, spanMeta(span), SecondBlockReq{
		DeviceID:  d.cfg.ID,
		TaskID:    id,
		Payload:   payload,
		ExitStage: exitStage,
	})
	span.End()
	if err != nil {
		if errors.Is(err, ErrDeadlineInfeasible) {
			// Shed now: the continuation cannot meet the deadline at the
			// edge and certainly not on the device.
			return 0, 0, false, false, fmt.Errorf("runtime: edge shed the continuation: %w (%v)", rpc.ErrDeadlineExceeded, err)
		}
		if !degradable(err) && !backpressured(err) {
			return 0, 0, false, false, err
		}
		// The edge vanished mid-task or refused the continuation: finish
		// the remaining blocks locally. Backpressure counts as a fallback,
		// unreachability as degradation.
		fellBack = backpressured(err)
		degraded = !fellBack
		more, derr := d.runLocalBlocks(ctx, parent, id, 2, exitStage)
		if derr != nil {
			return 0, 0, fellBack, degraded, derr
		}
		return exitStage, localDur + more, fellBack, degraded, nil
	}
	resp, ok := got.(TaskResp)
	if !ok {
		return 0, 0, false, false, fmt.Errorf("runtime: unexpected reply %T", got)
	}
	return resp.ExitStage, localDur, false, false, nil
}

// pipelinedPath sends the raw input into the chain's first stage; the
// stages relay the reply back, so one call covers every hop. The final
// exit may be shallower than asked when a mid-chain stage degraded the
// task after losing its next hop.
func (d *deviceRun) pipelinedPath(ctx context.Context, parent telemetry.SpanContext, id uint64, exitStage int) (int, error) {
	span := d.tel.tracer.StartSpan(parent, "rpc.pipeline").SetDevice(d.cfg.ID).SetTask(id)
	resp, err := d.pipe.DoMeta(ctx, spanMeta(span), id, exitStage)
	span.End()
	if err != nil {
		return 0, err
	}
	return resp.ExitStage, nil
}

// offloadedPath ships the raw input to the edge, which runs everything.
func (d *deviceRun) offloadedPath(ctx context.Context, parent telemetry.SpanContext, id uint64, exitStage int) (int, error) {
	payload := zeroPayload(int(d.cfg.Model.D[0]))
	span := d.tel.tracer.StartSpan(parent, "rpc.first_block").SetDevice(d.cfg.ID).SetTask(id)
	got, err := d.edgeClient().CallMeta(ctx, spanMeta(span), FirstBlockReq{
		DeviceID:  d.cfg.ID,
		TaskID:    id,
		Payload:   payload,
		ExitStage: exitStage,
	})
	span.End()
	if err != nil {
		return 0, err
	}
	resp, ok := got.(TaskResp)
	if !ok {
		return 0, fmt.Errorf("runtime: unexpected reply %T", got)
	}
	return resp.ExitStage, nil
}
