package runtime

import (
	"context"
	"fmt"
	"sync/atomic"

	"leime/internal/fleet"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// Edge federation: heartbeat serving, the peer registry, and the one-hop
// work-stealing path. A saturated edge (per-tenant pending cap hit or
// admission budget exhausted) forwards the rejected first-block task to the
// least-loaded ready peer, which executes the full remaining pipeline on
// its steal executor — spare capacity at the edge's full rate, outside the
// tenant KKT shares. The receiving edge never forwards again: StealReq
// handlers reject Hop != 1, so the one-hop bound is structural, not a
// convention.

// startPeers dials every configured peer and starts the heartbeat poller
// that tracks their health in a fleet registry.
func (e *Edge) startPeers() {
	e.peerClients = make(map[string]*rpc.ReliableClient, len(e.cfg.Peers))
	for _, addr := range e.cfg.Peers {
		e.peerClients[addr] = rpc.DialReliable(addr, nil, rpc.ReliableOptions{})
	}
	e.peers = fleet.New(e.cfg.Fleet, func(ctx context.Context, addr string) (fleet.Health, error) {
		c, ok := e.peerClients[addr]
		if !ok {
			return fleet.Health{}, fmt.Errorf("edge: unknown peer %q", addr)
		}
		got, err := c.Call(ctx, HeartbeatReq{})
		if err != nil {
			return fleet.Health{}, err
		}
		h, ok := got.(HeartbeatResp)
		if !ok {
			return fleet.Health{}, fmt.Errorf("edge: unexpected heartbeat reply %T", got)
		}
		return fleet.Health{Ready: h.Ready, FLOPS: h.FLOPS, Tenants: h.Tenants,
			BacklogSec: h.BacklogSec, Saturated: h.Saturated}, nil
	})
	for _, addr := range e.cfg.Peers {
		e.peers.Join(addr)
	}
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.GaugeFunc("leime_fleet_peers_ready", "Peer edges currently ready for stolen work.",
			func() float64 { return float64(len(e.peers.Ready())) })
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopPeers = cancel
	e.peerWG.Add(1)
	go func() {
		defer e.peerWG.Done()
		e.peers.Run(ctx)
	}()
}

// Ready reports whether the edge's KKT allocation is warm: it has at least
// one resident tenant with a solved share. The fleet readiness protocol
// keeps task traffic away from edges that are not (registration, a
// control-plane call, is what warms them).
func (e *Edge) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tenants) > 0
}

// PeerRegistry exposes the edge's view of its peers; nil when no peers are
// configured.
func (e *Edge) PeerRegistry() *fleet.Registry { return e.peers }

// StealStats snapshots the federation counters: tasks stolen in (executed
// for a peer), stolen out (placed on a peer), and failed steal attempts.
func (e *Edge) StealStats() (in, out, failed uint64) {
	return atomic.LoadUint64(&e.stealsIn), atomic.LoadUint64(&e.stealsOut), atomic.LoadUint64(&e.stealFailed)
}

// backlogSeconds sums queued work across every tenant executor, the steal
// executor and the pipeline-stage executor, in seconds at their current
// rates. The leime_edge_backlog_seconds gauge and the heartbeat both read
// it, so peers and federated devices see the load the edge reports.
func (e *Edge) backlogSeconds() float64 {
	e.mu.Lock()
	var sum float64
	for _, t := range e.tenants {
		sum += t.exec.BacklogSeconds()
	}
	e.mu.Unlock()
	return sum + e.stealExec.BacklogSeconds() + e.pipeExec.BacklogSeconds()
}

// healthResp builds the edge's heartbeat: fleet-wide health plus, when the
// caller identifies itself, its own tenancy view (backlog and share).
func (e *Edge) healthResp(deviceID string) HeartbeatResp {
	e.mu.Lock()
	resp := HeartbeatResp{
		Ready:   len(e.tenants) > 0,
		FLOPS:   e.cfg.FLOPS,
		Tenants: len(e.tenants),
	}
	var maxBacklog float64
	for _, t := range e.tenants {
		maxBacklog = max(maxBacklog, t.exec.BacklogSeconds())
	}
	if t, ok := e.tenants[deviceID]; ok {
		resp.PendingFirstBlock = int(atomic.LoadInt32(&t.h1))
		resp.ShareFLOPS = t.share * e.cfg.FLOPS
	}
	e.mu.Unlock()
	resp.BacklogSec = e.backlogSeconds()
	resp.Saturated = e.policy.MaxBacklogSec > 0 && maxBacklog >= e.policy.MaxBacklogSec
	return resp
}

// bestPeer picks the steal target: the ready, unsaturated peer with the
// least advertised backlog, ties broken by address order (the registry
// snapshot is sorted). Nil when no peer qualifies.
func (e *Edge) bestPeer() *rpc.ReliableClient {
	if e.peers == nil {
		return nil
	}
	bestAddr := ""
	bestBacklog := 0.0
	for _, m := range e.peers.Ready() {
		if m.Health.Saturated {
			continue
		}
		if bestAddr == "" || m.Health.BacklogSec < bestBacklog {
			bestAddr = m.Addr
			bestBacklog = m.Health.BacklogSec
		}
	}
	if bestAddr == "" {
		return nil
	}
	return e.peerClients[bestAddr]
}

// trySteal forwards an admission-rejected first-block task to the best
// peer. It reports false when no peer qualifies or the forward fails — the
// caller then returns the original rejection and the device falls back
// locally, exactly as without federation.
func (e *Edge) trySteal(ctx context.Context, meta rpc.Meta, req FirstBlockReq, model offload.ModelParams) (any, bool) {
	peer := e.bestPeer()
	if peer == nil {
		return nil, false
	}
	atomic.AddUint64(&e.stealsOut, 1)
	e.tel.stealsOut.Inc()
	var span *telemetry.Active
	if tctx := metaContext(meta); tctx.Valid() {
		span = e.tel.tracer.StartSpan(tctx, "rpc.steal").SetDevice(req.DeviceID).SetTask(req.TaskID)
	}
	ctx, cancel := forwardCtx(ctx)
	defer cancel()
	got, err := peer.CallMeta(ctx, spanMeta(span), StealReq{
		DeviceID:  req.DeviceID,
		TaskID:    req.TaskID,
		Payload:   req.Payload,
		ExitStage: req.ExitStage,
		Hop:       1,
		Model:     model,
	})
	if err != nil {
		span.SetNote("steal failed: " + err.Error()).End()
		atomic.AddUint64(&e.stealFailed, 1)
		e.tel.stealFailed.Inc()
		return nil, false
	}
	span.End()
	resp, ok := got.(TaskResp)
	if !ok {
		atomic.AddUint64(&e.stealFailed, 1)
		e.tel.stealFailed.Inc()
		return nil, false
	}
	return resp, true
}

// handleSteal executes a task forwarded by a saturated peer: block 1 on,
// on the steal executor, never forwarding again (the one-hop bound).
func (e *Edge) handleSteal(ctx context.Context, meta rpc.Meta, req StealReq) (any, error) {
	if req.Hop != 1 {
		return nil, fmt.Errorf("edge: steal hop %d violates the one-hop bound", req.Hop)
	}
	atomic.AddUint64(&e.stealsIn, 1)
	e.tel.stealsIn.Inc()
	model := req.Model
	if model.Validate() != nil {
		model = e.cfg.Model
	}
	if err := e.serveBlock(ctx, meta, e.stealExec, model.Mu[0], e.tel.block1, "edge.block1", req.DeviceID, req.TaskID); err != nil {
		return nil, e.execErr(err)
	}
	if req.ExitStage <= 1 {
		return TaskResp{TaskID: req.TaskID, ExitStage: 1}, nil
	}
	if err := e.serveBlock(ctx, meta, e.stealExec, model.Mu[1], e.tel.block2, "edge.block2", req.DeviceID, req.TaskID); err != nil {
		return nil, e.execErr(err)
	}
	if req.ExitStage <= 2 || e.cloud == nil {
		return TaskResp{TaskID: req.TaskID, ExitStage: 2}, nil
	}
	return e.forwardCloud(ctx, meta, model, req.DeviceID, req.TaskID)
}
