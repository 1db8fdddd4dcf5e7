package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"leime/internal/offload"
	"leime/internal/rpc"
)

// The device's edge choice. A device dials every edge in
// DeviceConfig.EdgeAddrs (a single EdgeAddr is a fleet of one) and starts
// each slot with one heartbeat round: every edge reports its backlog and
// capacity, and the device's own share and first-block backlog where it is
// resident. chooseEdge folds those answers into the Lyapunov drift term
// (offload.SelectEdge). When another edge's drift-plus-penalty objective
// beats the home's by more than the hysteresis margin, the device
// migrates: an explicit registration at the target (re-solving its KKT
// allocation), then a best-effort unregistration at the origin. Tasks
// always go to the edge that was home when they launched; in-flight work
// survives migrations by degrading locally at worst.

// switchMargin is the hysteresis for edge migration: the device leaves its
// home edge only when the best alternative improves the selection
// objective by more than this fraction.
const switchMargin = 0.05

// dialEdges dials every configured edge and registers the device at its
// initial home: a stable hash of the ID spreads devices across edges,
// rotating past edges that do not answer. The first call on the home dials
// it, and its OnConnect registers; no heartbeat round runs before the
// first slot.
func (d *deviceRun) dialEdges() error {
	cfg := d.cfg
	addrs := cfg.EdgeAddrs
	if len(addrs) == 0 {
		addrs = []string{cfg.EdgeAddr}
	}
	for i, addr := range addrs {
		shaper, err := linkShaper(cfg.Uplink, cfg.TimeScale, cfg.Seed^0xde^(int64(i)<<20))
		if err != nil {
			return err
		}
		d.edges = append(d.edges, rpc.DialReliable(addr, shaper, rpc.ReliableOptions{
			Retry:   cfg.Retry,
			Breaker: cfg.Breaker,
			// Re-establish the session on every (re)connection, but only at
			// the home: a restarted edge has no tenant state, so the device
			// re-registers with its live rate estimate before any other
			// call proceeds. Heartbeats reach every edge, and a bare probe
			// must not create a tenancy (and a KKT share) at an edge the
			// device does not use.
			OnConnect: func(ctx context.Context, c *rpc.Client) error {
				if int(d.home.Load()) != i {
					return nil
				}
				_, err := c.Call(ctx, d.registerReq())
				return err
			},
			OnRetry:         d.onRetry,
			OnBreakerChange: d.onBreakerChange,
			Seed:            cfg.Seed ^ 0x9e77 ^ (int64(i) << 16),
		}))
	}

	h := fnv.New32a()
	_, _ = h.Write([]byte(cfg.ID))
	start := int(h.Sum32() % uint32(len(addrs)))
	var firstErr error
	for k := range addrs {
		i := (start + k) % len(addrs)
		d.home.Store(int32(i))
		ctx, cancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
		_, err := d.edges[i].Call(ctx, HeartbeatReq{DeviceID: cfg.ID})
		cancel()
		if err == nil {
			d.tel.curEdge.Set(float64(i))
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("runtime: register: %w", firstErr)
}

// closeEdges closes every edge client.
func (d *deviceRun) closeEdges() {
	for _, c := range d.edges {
		_ = c.Close()
	}
}

// registerReq is the device's registration at an edge, carrying its live
// rate estimate.
func (d *deviceRun) registerReq() RegisterReq {
	return RegisterReq{DeviceID: d.cfg.ID, FLOPS: d.cfg.FLOPS, ArrivalMean: d.rate(), Model: d.cfg.Model}
}

// edgeView is one edge's answer to a heartbeat round. ok is false when the
// edge did not answer or its breaker is not closed: it is then no
// candidate, neither for a device's slot nor as a steal target.
type edgeView struct {
	hb HeartbeatResp
	ok bool
}

// heartbeatRound sends req to every client, concurrently, all bounded by
// ctx, and returns their answers in client order. A device runs one round
// per slot with its ID in req; an edge runs one anonymous round per
// peerEvery against its peers. While a breaker is half-open its heartbeat
// is the recovery probe.
func heartbeatRound(ctx context.Context, clients []*rpc.ReliableClient, req HeartbeatReq) []edgeView {
	views := make([]edgeView, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Call(ctx, req)
			hb, ok := got.(HeartbeatResp)
			views[i] = edgeView{hb: hb, ok: err == nil && ok && c.Breaker().State() == rpc.BreakerClosed}
		}()
	}
	wg.Wait()
	return views
}

// chooseEdge picks the slot's edge from its heartbeat round and returns
// its index with the state the slot decides against, or -1 when no edge is
// a candidate. An edge that reports the device resident is priced at its
// live share and the device's first-block backlog there; any other at an
// equal split of its FLOPS with one more tenant and an empty backlog. The
// home keeps the device unless an alternative beats its objective by more
// than switchMargin, since the non-resident price is optimistic.
func chooseEdge(ctrl *offload.Controller, dev offload.Device, arrivals, localQ float64, home int, views []edgeView) (int, offload.EdgeState) {
	var cands []int
	var states []offload.EdgeState
	homePos := -1
	for i, v := range views {
		if !v.ok {
			continue
		}
		st := offload.EdgeState{QueueSec: v.hb.BacklogSec}
		if v.hb.ShareFLOPS > 0 {
			st.ShareFLOPS = v.hb.ShareFLOPS
			st.Backlog = float64(v.hb.PendingFirstBlock)
		} else {
			st.ShareFLOPS = v.hb.FLOPS / float64(v.hb.Tenants+1)
		}
		if i == home {
			homePos = len(cands)
		}
		cands = append(cands, i)
		states = append(states, st)
	}
	best, evals := ctrl.SelectEdge(dev, arrivals, localQ, states)
	if best < 0 {
		return -1, offload.EdgeState{}
	}
	if homePos >= 0 && evals[best].Objective >= evals[homePos].Objective-switchMargin*math.Abs(evals[homePos].Objective) {
		best = homePos
	}
	return cands[best], states[best]
}

// step runs one slot's edge choice and returns its offloading ratio: a
// heartbeat round, chooseEdge, and a registration when the chosen edge is
// not the home or does not hold the device's tenancy. No candidate, or a
// failed registration, means device-only (x = 0).
func (d *deviceRun) step(ctrl *offload.Controller, policy offload.Policy, dev offload.Device, arrivals, localQ float64) float64 {
	ctx, cancel := d.controlCtx()
	views := heartbeatRound(ctx, d.edges, HeartbeatReq{DeviceID: d.cfg.ID})
	cancel()
	home := int(d.home.Load())
	best, st := chooseEdge(ctrl, dev, arrivals, localQ, home, views)
	if best < 0 {
		return 0
	}
	if best != home || views[best].hb.ShareFLOPS <= 0 {
		share, ok := d.register(home, best)
		if !ok {
			return 0
		}
		st.ShareFLOPS = share
	}
	slot := offload.Slot{
		Arrivals:       arrivals,
		State:          offload.State{Q: localQ, H: st.Backlog},
		EdgeShareFLOPS: st.ShareFLOPS,
	}
	return policy.Decide(ctrl, dev, slot)
}

// register makes edge to the device's home by an explicit registration
// (the edge re-solves its KKT allocation and returns the fresh share).
// When the home changed, it then unregisters at from, best effort, so the
// old share redistributes. On failure the home stays from.
func (d *deviceRun) register(from, to int) (float64, bool) {
	// Point home at the target first so the client's OnConnect registers
	// there if a dial races this explicit registration.
	d.home.Store(int32(to))
	ctx, cancel := d.controlCtx()
	got, err := d.edges[to].Call(ctx, d.registerReq())
	cancel()
	resp, ok := got.(RegisterResp)
	if err != nil || !ok {
		d.home.Store(int32(from))
		return 0, false
	}
	if to == from {
		return resp.ShareFLOPS, true
	}
	d.tel.migrations.Inc()
	d.tel.curEdge.Set(float64(to))
	d.mu.Lock()
	d.stats.Migrations++
	d.mu.Unlock()
	ctx, cancel = d.controlCtx()
	_, _ = d.edges[from].Call(ctx, UnregisterReq{DeviceID: d.cfg.ID})
	cancel()
	return resp.ShareFLOPS, true
}
