package runtime

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"leime/internal/rpc"
	"leime/internal/trace"
)

func TestEdgeUpdateRebalancesShares(t *testing.T) {
	edge := startTestbed(t)
	if _, err := edge.register(RegisterReq{DeviceID: "a", FLOPS: 1.2e9, ArrivalMean: 10}); err != nil {
		t.Fatalf("register a: %v", err)
	}
	if _, err := edge.register(RegisterReq{DeviceID: "b", FLOPS: 1.2e9, ArrivalMean: 10}); err != nil {
		t.Fatalf("register b: %v", err)
	}
	// Equal demand: equal shares.
	st := edge.stats()
	if math.Abs(st.Shares["a"]-0.5) > 0.01 {
		t.Fatalf("equal-demand share = %v, want ~0.5", st.Shares["a"])
	}
	// Device a re-registers with a much higher rate: its share must grow.
	got, err := edge.register(RegisterReq{DeviceID: "a", FLOPS: 1.2e9, ArrivalMean: 60})
	if err != nil {
		t.Fatalf("re-register a: %v", err)
	}
	newShare := got.(RegisterResp).ShareFLOPS / 6e10
	if newShare <= 0.55 {
		t.Errorf("share after 6x demand increase = %v, want > 0.55", newShare)
	}
	st = edge.stats()
	if math.Abs(st.Shares["a"]+st.Shares["b"]-1) > 1e-9 {
		t.Errorf("shares no longer sum to 1: %v", st.Shares)
	}
}

func TestEdgeUnregisterRedistributes(t *testing.T) {
	edge := startTestbed(t)
	for _, id := range []string{"a", "b", "c"} {
		if _, err := edge.register(RegisterReq{DeviceID: id, FLOPS: 1.2e9, ArrivalMean: 10}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	got, err := edge.unregister(UnregisterReq{DeviceID: "b"})
	if err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if got.(UnregisterResp).RemainingTenants != 2 {
		t.Errorf("remaining = %d, want 2", got.(UnregisterResp).RemainingTenants)
	}
	st := edge.stats()
	if st.Tenants != 2 {
		t.Fatalf("stats tenants = %d, want 2", st.Tenants)
	}
	var sum float64
	for id, share := range st.Shares {
		if id == "b" {
			t.Error("departed device still has a share")
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares after departure sum to %v", sum)
	}
	// Requests for the departed device must fail with the typed sentinel.
	if _, err := edge.handle(context.Background(), rpc.Meta{}, FirstBlockReq{DeviceID: "b", TaskID: 1, ExitStage: 1}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("task for departed device = %v, want ErrUnknownDevice", err)
	}
	// Double unregister must fail cleanly.
	if _, err := edge.unregister(UnregisterReq{DeviceID: "b"}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("double unregister = %v, want ErrUnknownDevice", err)
	}
}

// TestEdgeUnregisterReplansExitCaps holds unregister to the same re-solve
// as register: on a 1 GFLOPS edge under Degrade, two tenants at 100
// tasks/s overrun the 0.9 budget (2 x 6.8e8 FLOPS at 0.01 time scale), so
// the plan serves one of them from exit 1; once the other leaves, the
// survivor's 6.8e8 fits and its cap returns to 3.
func TestEdgeUnregisterReplansExitCaps(t *testing.T) {
	edge, err := StartEdge(EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 1e9, Model: testModel(), TimeScale: testScale,
		Policy: ControlPolicy{Degrade: DegradePolicy{Enabled: true}},
	})
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	defer edge.Close()
	for _, id := range []string{"a", "b"} {
		if _, err := edge.register(RegisterReq{DeviceID: id, FLOPS: 1.2e9, ArrivalMean: 100, Model: testModel()}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	caps := func() map[string]int32 {
		edge.mu.Lock()
		defer edge.mu.Unlock()
		out := map[string]int32{}
		for id, tn := range edge.tenants {
			out[id] = atomic.LoadInt32(&tn.exitCap)
		}
		return out
	}
	if got := caps(); got["a"] != 1 || got["b"] != 3 {
		t.Fatalf("caps with two tenants = %v, want a:1 b:3", got)
	}
	if _, err := edge.unregister(UnregisterReq{DeviceID: "b"}); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if got := caps(); got["a"] != 3 || len(got) != 1 {
		t.Errorf("caps after b left = %v, want a:3", got)
	}
}

func TestEdgeUnregisterLastTenant(t *testing.T) {
	edge := startTestbed(t)
	if _, err := edge.register(RegisterReq{DeviceID: "only", FLOPS: 1e9, ArrivalMean: 3}); err != nil {
		t.Fatalf("register: %v", err)
	}
	got, err := edge.unregister(UnregisterReq{DeviceID: "only"})
	if err != nil {
		t.Fatalf("unregister last: %v", err)
	}
	if got.(UnregisterResp).RemainingTenants != 0 {
		t.Errorf("remaining = %d, want 0", got.(UnregisterResp).RemainingTenants)
	}
	if st := edge.stats(); st.Tenants != 0 {
		t.Errorf("stats tenants = %d, want 0", st.Tenants)
	}
}

func TestAdaptiveDeviceRenegotiatesShare(t *testing.T) {
	edge := startTestbed(t)
	// A competitor occupies half the edge so the adaptive device's share
	// change is observable.
	if _, err := edge.register(RegisterReq{DeviceID: "static", FLOPS: 1.2e9, ArrivalMean: 5}); err != nil {
		t.Fatalf("register static: %v", err)
	}
	cfg := testDeviceConfig(edge.Addr(), "adaptive")
	cfg.ArrivalMean = 2 // initial low estimate
	proc := &trace.Constant{PerSlot: 12}
	cfg.Arrivals = proc // actual load is 6x the estimate
	cfg.AdaptEvery = 5
	cfg.Slots = 25
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Errors != 0 {
		t.Errorf("%d task errors", stats.Errors)
	}
	// After adaptation, the edge's view of the adaptive device's demand must
	// have risen well above the initial estimate of 2.
	st := edge.stats()
	if st.Tenants != 2 {
		t.Fatalf("tenants = %d, want 2", st.Tenants)
	}
	// With true rate 12 vs the competitor's 5, the adaptive device should
	// hold the larger share.
	if st.Shares["adaptive"] <= st.Shares["static"] {
		t.Errorf("adaptive device share %v not above static's %v after renegotiation",
			st.Shares["adaptive"], st.Shares["static"])
	}
}

func TestEdgeStatsCountsBacklog(t *testing.T) {
	edge := startTestbed(t)
	if _, err := edge.register(RegisterReq{DeviceID: "a", FLOPS: 1e9, ArrivalMean: 3}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if st := edge.stats(); st.PendingFirstBlock != 0 {
		t.Errorf("fresh edge backlog = %d", st.PendingFirstBlock)
	}
}
