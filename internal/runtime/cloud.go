package runtime

import (
	"context"
	"errors"
	"fmt"

	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// CloudConfig configures the cloud tier.
type CloudConfig struct {
	// Addr is the listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// FLOPS is the cloud capability F^c.
	FLOPS float64
	// Block3FLOPs is mu_3: the third block's operation count.
	Block3FLOPs float64
	// TimeScale compresses testbed time.
	TimeScale Scale
	// Tracer records task-lifecycle spans for requests arriving with a
	// trace context; nil disables tracing.
	Tracer *telemetry.Tracer
	// Metrics registers the cloud's counters and histograms; nil disables
	// them.
	Metrics *telemetry.Registry
}

// Cloud serves third-block continuations.
type Cloud struct {
	srv  *rpc.Server
	exec *Executor
}

// StartCloud launches the cloud server.
func StartCloud(cfg CloudConfig) (*Cloud, error) {
	if cfg.FLOPS <= 0 || cfg.Block3FLOPs <= 0 {
		return nil, fmt.Errorf("runtime: cloud FLOPS (%v) and block-3 FLOPs (%v) must be positive", cfg.FLOPS, cfg.Block3FLOPs)
	}
	RegisterMessages()
	exec, err := NewExecutor(cfg.FLOPS, cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	requests := cfg.Metrics.Counter("leime_cloud_requests_total", "Third-block continuations served.")
	sheds := cfg.Metrics.Counter("leime_cloud_deadline_shed_total", "Requests shed because their deadline passed (on arrival or while queued).")
	queueWait := cfg.Metrics.Histogram("leime_cloud_queue_wait_seconds", "Third-block wait before service (wall seconds).", nil)
	block3 := cfg.Metrics.Histogram("leime_cloud_block_seconds", "Block service time (wall seconds).", nil, telemetry.Label{Key: "block", Value: "3"})
	c := &Cloud{exec: exec}
	handler := func(ctx context.Context, meta rpc.Meta, body any) (any, error) {
		req, ok := body.(ThirdBlockReq)
		if !ok {
			return nil, fmt.Errorf("cloud: unexpected request %T", body)
		}
		requests.Inc()
		flops := req.FLOPs
		if flops <= 0 {
			flops = cfg.Block3FLOPs
		}
		wait, service, err := c.exec.DoTimedCtx(ctx, flops)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				sheds.Inc()
				return nil, fmt.Errorf("cloud: queued work shed: %w", rpc.ErrDeadlineExceeded)
			}
			return nil, err
		}
		queueWait.Observe(wait.Seconds())
		block3.Observe(service.Seconds())
		recordTimedSpans(cfg.Tracer, metaContext(meta), "cloud.queue", "cloud.block3", "", req.TaskID, wait, service)
		return TaskResp{TaskID: req.TaskID, ExitStage: 3}, nil
	}
	srv, err := rpc.ServeMeta(cfg.Addr, handler, rpc.WithShedHook(func() { sheds.Inc() }))
	if err != nil {
		exec.Close()
		return nil, err
	}
	c.srv = srv
	return c, nil
}

// Addr returns the cloud's listen address.
func (c *Cloud) Addr() string { return c.srv.Addr() }

// Close stops serving and releases the executor.
func (c *Cloud) Close() error {
	err := c.srv.Close()
	c.exec.Close()
	return err
}
