package runtime

import (
	"testing"
	"time"

	"leime/internal/offload"
	"leime/internal/rpc"
)

// chooseFixture is the controller and device every chooseEdge case decides
// for: the test model at V = 1e4, five arrivals a slot, an empty local queue.
func chooseFixture(t *testing.T) (*offload.Controller, offload.Device) {
	t.Helper()
	ctrl, err := offload.NewController(offload.Config{Model: testModel(), TauSec: 1, V: 1e4})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return ctrl, offload.Device{FLOPS: 1.2e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 5}
}

const chooseArrivals = 5

// resident is a heartbeat from an edge that holds the device's tenancy.
func resident(share float64, pending int, backlogSec float64) edgeView {
	return edgeView{ok: true, hb: HeartbeatResp{Ready: true, FLOPS: 6e10, Tenants: 2,
		ShareFLOPS: share, PendingFirstBlock: pending, BacklogSec: backlogSec}}
}

// visitor is a heartbeat from an edge where the device is not resident.
func visitor(edgeFLOPS float64, tenants int, backlogSec float64) edgeView {
	return edgeView{ok: true, hb: HeartbeatResp{Ready: tenants > 0, FLOPS: edgeFLOPS, Tenants: tenants, BacklogSec: backlogSec}}
}

// TestChooseEdgeHysteresis pins switchMargin. The home (edge 0) and the
// alternative (edge 1, 4e10 FLOPS with one tenant, so priced at 2e10) get
// the same share; the home's edge-wide backlog adds a penalty of a fixed
// fraction of its objective. A 2 % edge must not move the device, a 20 %
// edge must.
func TestChooseEdgeHysteresis(t *testing.T) {
	ctrl, dev := chooseFixture(t)
	const share = 2e10
	_, evals := ctrl.SelectEdge(dev, chooseArrivals, 0, []offload.EdgeState{{ShareFLOPS: share}})
	obj, x := evals[0].Objective, evals[0].Ratio
	if obj <= 0 || x <= 0 {
		t.Fatalf("fixture objective %v, ratio %v: want both positive", obj, x)
	}
	// backlogFor returns the home backlog whose congestion penalty
	// (V * QueueSec * x * arrivals) is frac of the unpenalized objective.
	backlogFor := func(frac float64) float64 { return frac * obj / (1e4 * x * chooseArrivals) }

	for _, tc := range []struct {
		name string
		frac float64
		want int
	}{
		{"stays-within-margin", 0.02, 0},
		{"moves-past-margin", 0.2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := []edgeView{resident(share, 0, backlogFor(tc.frac)), visitor(2*share, 1, 0)}
			got, st := chooseEdge(ctrl, dev, chooseArrivals, 0, 0, views)
			if got != tc.want {
				t.Fatalf("chooseEdge = %d, want %d", got, tc.want)
			}
			if st.ShareFLOPS != share {
				t.Errorf("chosen share = %v, want %v", st.ShareFLOPS, share)
			}
		})
	}
}

// TestChooseEdgeCandidates covers which edges are priced, and how.
func TestChooseEdgeCandidates(t *testing.T) {
	ctrl, dev := chooseFixture(t)
	missed := resident(5e10, 0, 0)
	missed.ok = false

	// An edge out of the round is skipped, though it would win if it had
	// answered.
	answered := missed
	answered.ok = true
	if got, _ := chooseEdge(ctrl, dev, chooseArrivals, 0, 1, []edgeView{answered, resident(1e9, 3, 0)}); got != 0 {
		t.Fatalf("fixture: chose %d, want edge 0 to beat the home when it answers", got)
	}
	if got, _ := chooseEdge(ctrl, dev, chooseArrivals, 0, 1, []edgeView{missed, resident(1e9, 3, 0)}); got != 1 {
		t.Errorf("chose %d over the home, want the home (1): edge 0 missed the round", got)
	}
	// A home out of the round gives no hysteresis: the device moves.
	if got, _ := chooseEdge(ctrl, dev, chooseArrivals, 0, 0, []edgeView{missed, visitor(6e10, 2, 0)}); got != 1 {
		t.Errorf("chose %d with the home out of the round, want 1", got)
	}

	// A resident edge is priced at its live share and the device's
	// first-block backlog there; a non-resident one at F/(n+1) and no
	// backlog, whatever it reports.
	_, st := chooseEdge(ctrl, dev, chooseArrivals, 0, 0, []edgeView{resident(3e10, 4, 0.5)})
	if want := (offload.EdgeState{ShareFLOPS: 3e10, Backlog: 4, QueueSec: 0.5}); st != want {
		t.Errorf("resident state = %+v, want %+v", st, want)
	}
	away := visitor(6e10, 2, 0.25)
	away.hb.PendingFirstBlock = 7
	_, st = chooseEdge(ctrl, dev, chooseArrivals, 0, 1, []edgeView{away})
	if want := (offload.EdgeState{ShareFLOPS: 2e10, QueueSec: 0.25}); st != want {
		t.Errorf("non-resident state = %+v, want %+v", st, want)
	}

	// No candidate: -1, and the slot runs device-only.
	for _, views := range [][]edgeView{nil, {missed, missed}} {
		if got, _ := chooseEdge(ctrl, dev, chooseArrivals, 0, 0, views); got != -1 {
			t.Errorf("chooseEdge over %d dead edges = %d, want -1", len(views), got)
		}
	}
}

// TestHeartbeatRoundMarksDeadEdges runs the slot's heartbeat round against
// a live edge, where the device is resident, and an address nobody
// listens on, whose breaker opens on the first miss: only the live edge is
// a candidate, in the round that opens the breaker and the one after.
func TestHeartbeatRoundMarksDeadEdges(t *testing.T) {
	edge := startTestbed(t)
	if _, err := edge.register(RegisterReq{DeviceID: "hb", FLOPS: 1.2e9, ArrivalMean: 5}); err != nil {
		t.Fatalf("register: %v", err)
	}
	d := &deviceRun{cfg: testDeviceConfig(edge.Addr(), "hb")}
	opts := rpc.ReliableOptions{
		Retry:   rpc.RetryPolicy{MaxAttempts: 1},
		Breaker: rpc.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour},
	}
	d.edges = []*rpc.ReliableClient{rpc.DialReliable(edge.Addr(), nil, opts), rpc.DialReliable("127.0.0.1:1", nil, opts)}
	defer d.closeEdges()

	for round := 0; round < 2; round++ {
		ctx, cancel := d.controlCtx()
		views := heartbeatRound(ctx, d.edges, HeartbeatReq{DeviceID: "hb"})
		cancel()
		if !views[0].ok || views[0].hb.ShareFLOPS <= 0 {
			t.Errorf("round %d: live edge view %+v, want a candidate reporting the device resident", round, views[0])
		}
		if views[1].ok {
			t.Errorf("round %d: dead edge is a candidate", round)
		}
	}
	if s := d.edges[1].Breaker().State(); s != rpc.BreakerOpen {
		t.Errorf("dead edge breaker = %v, want open", s)
	}
}
