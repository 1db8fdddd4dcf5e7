package runtime

import (
	"context"
	"errors"
	"fmt"

	"leime/internal/netem"
	"leime/internal/partition"
	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// Pipelined inference: a chain of edge workers each executes one layer
// range of the model and forwards the surviving task's activation to the
// next hop over the binary wire protocol. The chain is computed by
// internal/partition and installed stage by stage (StageInstallReq); tasks
// ride it as ActivationReqs whose replies relay back hop by hop, so the
// task source sees one synchronous call with the deadline and trace
// context of rpc.Meta covering every hop. Each stage burns its compute on
// an executor governed by the edge's ControlPolicy — a pipelined tenant
// consumes admission budget on every stage it crosses, and a stage that
// cannot accept the work backpressures the whole chain exactly like a
// single overloaded edge.

// PipelineStage is the runtime installation spec of one chain stage — the
// wire-level mirror of partition.Stage, carrying only what the executing
// worker needs.
type PipelineStage struct {
	// FLOPs[c] is the per-exit-class operation count of the stage.
	FLOPs [3]float64
	// Hosted[c] reports that exit class c+1 completes here.
	Hosted [3]bool
	// Deepest is the deepest exit class answerable from this stage (or an
	// earlier one) when the next hop is unreachable; 0 = none.
	Deepest int
	// OutBytes is the activation size forwarded downstream.
	OutBytes float64
}

// PipelineFromPlan converts a solved partition into installable stage
// specs, one per plan stage in chain order.
func PipelineFromPlan(p *partition.Plan) []PipelineStage {
	out := make([]PipelineStage, len(p.Stages))
	for i, st := range p.Stages {
		out[i] = PipelineStage{
			FLOPs:    st.FLOPs,
			Hosted:   st.Hosted,
			Deepest:  st.Deepest,
			OutBytes: st.OutBytes,
		}
	}
	return out
}

// pipeStage is the edge-side state of one installed stage: its spec and
// the lazily dialed client of the next hop (nil for the terminal stage).
type pipeStage struct {
	spec StageInstallReq
	next *rpc.ReliableClient
}

// stageInstall upserts one pipeline stage. A replaced stage's next-hop
// client is closed after the swap; in-flight activations racing the
// replacement finish on the client they captured.
func (e *Edge) stageInstall(req StageInstallReq) (any, error) {
	if req.PipelineID == "" {
		return nil, fmt.Errorf("edge: stage install needs a pipeline id")
	}
	if req.Stage < 0 || req.Deepest < 0 || req.Deepest > 3 {
		return nil, fmt.Errorf("edge: stage install %q: bad stage %d or deepest %d", req.PipelineID, req.Stage, req.Deepest)
	}
	var next *rpc.ReliableClient
	if req.NextAddr != "" {
		// The next-hop path is shaped by the edge's PeerLink (scaled like
		// every testbed link); the seed is deterministic per stage so
		// same-seed runs replay identical jitter.
		shaper, err := netem.NewShaper(scaleLink(e.cfg.PeerLink, e.cfg.TimeScale), 0x9e1e+int64(req.Stage))
		if err != nil {
			return nil, err
		}
		next = rpc.DialReliable(req.NextAddr, shaper, rpc.ReliableOptions{})
	}
	e.pipeMu.Lock()
	stages, ok := e.pipes[req.PipelineID]
	if !ok {
		stages = make(map[int]*pipeStage)
		e.pipes[req.PipelineID] = stages
	}
	old := stages[req.Stage]
	stages[req.Stage] = &pipeStage{spec: req, next: next}
	e.pipeMu.Unlock()
	if old != nil && old.next != nil {
		_ = old.next.Close()
	}
	return StageInstallResp{Stage: req.Stage}, nil
}

// pipelineStage looks up an installed stage.
func (e *Edge) pipelineStage(id string, stage int) (*pipeStage, error) {
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	st, ok := e.pipes[id][stage]
	if !ok {
		return nil, fmt.Errorf("%w (%q stage %d)", ErrUnknownPipeline, id, stage)
	}
	return st, nil
}

// activation executes one task's share of this stage and either answers
// from a hosted exit or forwards the next activation downstream, relaying
// the reply back. Failure semantics when the next hop cannot take the
// task: every classifier up to the stage's end has already run for this
// task, so the stage answers from its deepest hosted exit — an accuracy
// sacrifice, never a hang (the rpc deadline in meta bounds the forward) —
// and only errors out when no exit head has been computed yet.
func (e *Edge) activation(ctx context.Context, meta rpc.Meta, req ActivationReq) (any, error) {
	st, err := e.pipelineStage(req.PipelineID, req.Stage)
	if err != nil {
		return nil, err
	}
	if req.ExitStage < 1 || req.ExitStage > 3 {
		return nil, fmt.Errorf("edge: activation exit stage %d out of range", req.ExitStage)
	}
	if err := e.serveBlock(ctx, meta, e.pipeExec, st.spec.FLOPs[req.ExitStage-1], e.tel.stage, fmt.Sprintf("edge.stage%d", req.Stage), req.DeviceID, req.TaskID); err != nil {
		return nil, e.execErr(err)
	}
	if st.spec.Hosted[req.ExitStage-1] {
		return TaskResp{TaskID: req.TaskID, ExitStage: req.ExitStage}, nil
	}
	if st.next == nil {
		if st.spec.Deepest > 0 {
			e.tel.pipeDegraded.Inc()
			return TaskResp{TaskID: req.TaskID, ExitStage: st.spec.Deepest}, nil
		}
		return nil, fmt.Errorf("edge: pipeline %q stage %d hosts no exit for class %d and has no next hop",
			req.PipelineID, req.Stage, req.ExitStage)
	}
	var hopSpan *telemetry.Active
	if tctx := metaContext(meta); tctx.Valid() {
		hopSpan = e.tel.tracer.StartSpan(tctx, "rpc.stage").SetDevice(req.DeviceID).SetTask(req.TaskID)
	}
	ctx, cancel := forwardCtx(ctx)
	defer cancel()
	got, err := st.next.CallMeta(ctx, spanMeta(hopSpan), ActivationReq{
		PipelineID: req.PipelineID,
		DeviceID:   req.DeviceID,
		TaskID:     req.TaskID,
		Stage:      req.Stage + 1,
		ExitStage:  req.ExitStage,
		Payload:    zeroPayload(int(st.spec.OutBytes)),
	})
	if err != nil {
		// A dead, restarted or saturated next hop degrades the task to the
		// deepest exit this stage (or an earlier one) already computed.
		// Deadline-infeasible is not degradable: the budget is blown either
		// way, so the typed reason propagates to the source (it unwraps to
		// ErrOverloaded, hence the explicit check before the classifiers).
		if !errors.Is(err, ErrDeadlineInfeasible) && (degradable(err) || errors.Is(err, ErrUnknownPipeline) || backpressured(err)) && st.spec.Deepest > 0 {
			hopSpan.SetNote("degraded: " + err.Error()).End()
			e.tel.pipeDegraded.Inc()
			return TaskResp{TaskID: req.TaskID, ExitStage: st.spec.Deepest}, nil
		}
		hopSpan.End()
		return nil, fmt.Errorf("edge: pipeline forward: %w", err)
	}
	hopSpan.End()
	resp, ok := got.(TaskResp)
	if !ok {
		return nil, fmt.Errorf("edge: unexpected stage reply %T", got)
	}
	return resp, nil
}

// closePipelines releases every next-hop client; called from Edge.Close.
func (e *Edge) closePipelines() {
	e.pipeMu.Lock()
	defer e.pipeMu.Unlock()
	for _, stages := range e.pipes {
		for _, st := range stages {
			if st.next != nil {
				_ = st.next.Close()
			}
		}
	}
	e.pipes = make(map[string]map[int]*pipeStage)
}

// InstallPipeline pushes one stage spec per address, last stage first so
// every NextAddr points at an already-installed stage by the time traffic
// can reach it. The control connections are unshaped and closed before
// returning; installs are idempotent, so re-running after a worker restart
// repairs the chain.
func InstallPipeline(ctx context.Context, id string, addrs []string, stages []PipelineStage) error {
	if id == "" {
		return fmt.Errorf("runtime: pipeline needs an id")
	}
	if len(addrs) == 0 || len(addrs) != len(stages) {
		return fmt.Errorf("runtime: pipeline %q: %d addresses for %d stages", id, len(addrs), len(stages))
	}
	RegisterMessages()
	for j := len(addrs) - 1; j >= 0; j-- {
		next := ""
		if j+1 < len(addrs) {
			next = addrs[j+1]
		}
		c := rpc.DialReliable(addrs[j], nil, rpc.ReliableOptions{})
		_, err := c.Call(ctx, StageInstallReq{
			PipelineID: id,
			Stage:      j,
			FLOPs:      stages[j].FLOPs,
			Hosted:     stages[j].Hosted,
			Deepest:    stages[j].Deepest,
			OutBytes:   stages[j].OutBytes,
			NextAddr:   next,
		})
		_ = c.Close()
		if err != nil {
			return fmt.Errorf("runtime: install pipeline %q stage %d at %s: %w", id, j, addrs[j], err)
		}
	}
	return nil
}

// PipelineClientConfig configures a task source driving an installed
// pipeline.
type PipelineClientConfig struct {
	// Addr is the first stage's edge address.
	Addr string
	// PipelineID names the installed chain.
	PipelineID string
	// DeviceID identifies the source in traces and stage telemetry.
	DeviceID string
	// InputBytes is the raw task input size (d_0).
	InputBytes float64
	// Uplink shapes the source-to-first-stage path.
	Uplink netem.Link
	// TimeScale compresses testbed time, exactly like every other tier.
	TimeScale Scale
	// Seed drives the uplink shaper's jitter.
	Seed int64
	// Retry and Breaker tune the reliability layer (zero values = rpc
	// defaults). Activations are not idempotent, so Retry only governs
	// control-plane traffic on this connection.
	Retry   rpc.RetryPolicy
	Breaker rpc.BreakerConfig
}

// PipelineClient issues tasks into a pipeline chain and reports their
// final exits. It is safe for concurrent use.
type PipelineClient struct {
	cfg PipelineClientConfig
	c   *rpc.ReliableClient
}

// DialPipeline builds the client; the connection is established lazily.
func DialPipeline(cfg PipelineClientConfig) (*PipelineClient, error) {
	if cfg.Addr == "" || cfg.PipelineID == "" {
		return nil, fmt.Errorf("runtime: pipeline client needs an address and a pipeline id")
	}
	RegisterMessages()
	shaper, err := netem.NewShaper(scaleLink(cfg.Uplink, cfg.TimeScale), cfg.Seed^0x91e)
	if err != nil {
		return nil, err
	}
	return &PipelineClient{
		cfg: cfg,
		c:   rpc.DialReliable(cfg.Addr, shaper, rpc.ReliableOptions{Retry: cfg.Retry, Breaker: cfg.Breaker, Seed: cfg.Seed ^ 0x91e7}),
	}, nil
}

// DoMeta runs one task of the given predetermined exit class through the
// chain and returns where it actually exited (which may be shallower than
// asked when a mid-chain stage degraded it). meta carries the caller's
// trace context; its deadline field is filled from ctx by the rpc layer.
func (pc *PipelineClient) DoMeta(ctx context.Context, meta rpc.Meta, taskID uint64, exitStage int) (TaskResp, error) {
	got, err := pc.c.CallMeta(ctx, meta, ActivationReq{
		PipelineID: pc.cfg.PipelineID,
		DeviceID:   pc.cfg.DeviceID,
		TaskID:     taskID,
		ExitStage:  exitStage,
		Payload:    zeroPayload(int(pc.cfg.InputBytes)),
	})
	if err != nil {
		return TaskResp{}, err
	}
	resp, ok := got.(TaskResp)
	if !ok {
		return TaskResp{}, fmt.Errorf("runtime: unexpected pipeline reply %T", got)
	}
	return resp, nil
}

// Close releases the connection.
func (pc *PipelineClient) Close() error { return pc.c.Close() }
