package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"leime/internal/offload"
	"leime/internal/rpc"
)

// Edge federation: heartbeat serving, the peer heartbeat round, and the
// one-hop work-stealing path. A saturated edge (admission budget exhausted)
// forwards the rejected first-block task to the least-loaded ready peer,
// which executes the full remaining pipeline on its steal executor — a
// stealShare slice of its FLOPS, outside the tenant KKT shares. The
// receiving edge never forwards again: StealReq handlers reject Hop != 1,
// so the one-hop bound is structural, not a convention.

// stealShare is the fraction of FLOPS an edge reserves for executing stolen
// peer work, on top of the tenant allocation. Stolen tasks must not ride the
// full edge rate: an overflow slice keeps one steal hop from doubling the
// fleet's modeled compute.
const stealShare = 0.1

// peerEvery is the cadence of an edge's peer heartbeat round, and it bounds
// each round: a peer that does not answer within it is no steal target
// until a later round hears it.
const peerEvery = 100 * time.Millisecond

// startPeers dials every configured peer, in sorted address order and
// shaped by PeerLink, and runs the heartbeat round against them once now
// and then every peerEvery, keeping the last round for stealTarget.
func (e *Edge) startPeers() error {
	addrs := append([]string(nil), e.cfg.Peers...)
	sort.Strings(addrs)
	for i, addr := range addrs {
		shaper, err := linkShaper(e.cfg.PeerLink, e.cfg.TimeScale, 0x9ee2^(int64(i)<<16))
		if err != nil {
			return err
		}
		e.peerClients = append(e.peerClients, rpc.DialReliable(addr, shaper, rpc.ReliableOptions{}))
	}
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.GaugeFunc("leime_fleet_peers_ready", "Peer edges ready for stolen work in the last heartbeat round.",
			func() float64 { return float64(readyPeers(e.lastPeerRound())) })
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopPeers = cancel
	e.peerWG.Add(1)
	go func() {
		defer e.peerWG.Done()
		tick := time.NewTicker(peerEvery)
		defer tick.Stop()
		for {
			rctx, rcancel := context.WithTimeout(ctx, peerEvery)
			views := heartbeatRound(rctx, e.peerClients, HeartbeatReq{})
			rcancel()
			e.peerRound.Store(&views)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return nil
}

// lastPeerRound is the last peer heartbeat round, in peer address order;
// nil before the first round ends or without peers.
func (e *Edge) lastPeerRound() []edgeView {
	if v := e.peerRound.Load(); v != nil {
		return *v
	}
	return nil
}

// readyPeers counts the round's candidates that report Ready.
func readyPeers(views []edgeView) int {
	n := 0
	for _, v := range views {
		if v.ok && v.hb.Ready {
			n++
		}
	}
	return n
}

// stealTarget picks the steal target from a peer heartbeat round: among
// the candidates (answered, breaker closed) that report Ready and not
// Saturated, the one with the least BacklogSec, ties to the lower index
// (views are in address order). It returns -1 when no peer qualifies.
func stealTarget(views []edgeView) int {
	best := -1
	for i, v := range views {
		if !v.ok || !v.hb.Ready || v.hb.Saturated {
			continue
		}
		if best < 0 || v.hb.BacklogSec < views[best].hb.BacklogSec {
			best = i
		}
	}
	return best
}

// Ready reports whether the edge's KKT allocation is warm: it has at least
// one resident tenant with a solved share. Peers steal only to an edge
// whose heartbeat reports it ready (registration, a control-plane call, is
// what warms it).
func (e *Edge) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tenants) > 0
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

// trySteal forwards an admission-refused first-block task, at the exit
// its tenant's cap allows, to the best peer and returns the peer's answer.
// When no peer qualifies or the forward fails, it returns the edge's own
// refusal, and the device falls back locally exactly as without
// federation. A peer that served block 1 and then refused block 2 is the
// exception: its refusal goes back instead, so the device does not run
// block 1 again.
func (e *Edge) trySteal(ctx context.Context, meta rpc.Meta, req FirstBlockReq, model offload.ModelParams, exit int, refused error) (any, error) {
	best := stealTarget(e.lastPeerRound())
	if best < 0 {
		return nil, e.execErr(refused)
	}
	e.tel.stealsOut.Inc()
	resp, err := e.forward(ctx, meta, e.peerClients[best], "rpc.steal", req.DeviceID, req.TaskID, StealReq{
		DeviceID:  req.DeviceID,
		TaskID:    req.TaskID,
		Payload:   req.Payload,
		ExitStage: exit,
		Hop:       1,
		Model:     model,
	})
	if err == nil {
		return resp, nil
	}
	e.tel.stealFailed.Inc()
	if errors.Is(err, errBlock2Refused) {
		refused = err
	}
	return nil, e.execErr(refused)
}

// handleSteal serves a task forwarded by a saturated peer from block 1 on,
// on the steal executor, never forwarding it to another peer (the one-hop
// bound).
func (e *Edge) handleSteal(ctx context.Context, meta rpc.Meta, req StealReq) (any, error) {
	if req.Hop != 1 {
		return nil, fmt.Errorf("edge: steal hop %d violates the one-hop bound", req.Hop)
	}
	e.tel.stealsIn.Inc()
	model := req.Model
	if model.Validate() != nil {
		model = e.cfg.Model
	}
	return e.serveTask(ctx, meta, e.stealExec, model, req.DeviceID, req.TaskID, 1, req.ExitStage)
}
