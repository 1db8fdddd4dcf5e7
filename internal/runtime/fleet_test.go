package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// startFederatedEdge starts one edge with the given peers, registered for
// cleanup.
func startFederatedEdge(t *testing.T, cfg EdgeConfig) *Edge {
	t.Helper()
	e, err := StartEdge(cfg)
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// registerAt creates a tenancy for id at the edge through a raw client (the
// readiness protocol: an edge serves steal traffic only once its KKT
// allocation is warm).
func registerAt(t *testing.T, addr, id string) *rpc.Client {
	t.Helper()
	RegisterMessages()
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatalf("Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.Call(context.Background(), RegisterReq{DeviceID: id, FLOPS: 1e9, ArrivalMean: 2}); err != nil {
		t.Fatalf("register %s at %s: %v", id, addr, err)
	}
	return c
}

// waitReadyPeers blocks until the edge's last peer heartbeat round has n
// ready candidates.
func waitReadyPeers(t *testing.T, e *Edge, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for readyPeers(e.lastPeerRound()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("peer heartbeat round never saw %d ready peers (have %d)", n, readyPeers(e.lastPeerRound()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// steals reads an edge's leime_edge_steals_total counter for one direction
// ("in" or "out").
func steals(reg *telemetry.Registry, dir string) uint64 {
	return reg.Counter("leime_edge_steals_total", "", telemetry.Label{Key: "dir", Value: dir}).Value()
}

// TestStealOneHopBound pins the structural one-hop property of work
// stealing: a saturated edge forwards rejected tasks to its peer, the peer
// executes them on spare capacity, and the stolen work is NEVER forwarded
// again — the peer's own peer sees zero steals, and an over-hop StealReq is
// rejected outright.
func TestStealOneHopBound(t *testing.T) {
	regA, regB, regC := telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()
	edgeC := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
		Metrics: regC,
	})
	edgeB := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
		Peers: []string{edgeC.Addr()}, Metrics: regB,
	})
	// A tiny backlog budget on a slow edge (about one first-block task at
	// full share) makes admission reject most of the burst below with
	// ErrOverloaded, forcing the steal path.
	edgeA := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 2e9, Model: testModel(), TimeScale: testScale,
		Policy: ControlPolicy{MaxBacklogSec: 0.15},
		Peers:  []string{edgeB.Addr()}, Metrics: regA,
	})

	// Warm every edge's allocation so the fleet readiness gate opens.
	registerAt(t, edgeC.Addr(), "res-c")
	registerAt(t, edgeB.Addr(), "res-b")
	src := registerAt(t, edgeA.Addr(), "src")
	waitReadyPeers(t, edgeA, 1)
	waitReadyPeers(t, edgeB, 1)

	// Burst concurrent first-block offloads at the saturated edge. Each
	// either runs at A, is stolen to B, or is rejected back to the caller —
	// but none may travel A -> B -> C.
	const burst = 24
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _ = src.Call(ctx, FirstBlockReq{DeviceID: "src", TaskID: uint64(i + 1), Payload: []byte{1}, ExitStage: 1})
		}(i)
	}
	wg.Wait()

	aOut := steals(regA, "out")
	bIn, bOut := steals(regB, "in"), steals(regB, "out")
	cIn := steals(regC, "in")
	if aOut == 0 {
		t.Fatal("saturated edge never attempted a steal; burst too lenient")
	}
	if bIn == 0 {
		t.Error("peer executed no stolen tasks")
	}
	if bOut != 0 {
		t.Errorf("peer re-stole %d received tasks; one-hop bound violated", bOut)
	}
	if cIn != 0 {
		t.Errorf("second-hop peer received %d steals; one-hop bound violated", cIn)
	}

	// The bound is also enforced on the wire: an over-hop StealReq is
	// rejected before any execution.
	raw, err := rpc.Dial(edgeB.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer raw.Close()
	_, err = raw.Call(context.Background(), StealReq{DeviceID: "src", TaskID: 999, ExitStage: 1, Hop: 2, Model: testModel()})
	if err == nil || !strings.Contains(err.Error(), "one-hop") {
		t.Errorf("Hop=2 steal not rejected: err=%v", err)
	}
	if cInAfter := steals(regC, "in"); cInAfter != 0 {
		t.Errorf("over-hop steal leaked %d tasks to the second peer", cInAfter)
	}
}

// TestStealTarget pins the steal-target rule on fixed heartbeat rounds:
// only peers that answered and report Ready and not Saturated qualify, the
// least backlog wins, and a tie goes to the lower index (address order).
func TestStealTarget(t *testing.T) {
	peer := func(backlog float64) edgeView {
		return edgeView{hb: HeartbeatResp{Ready: true, BacklogSec: backlog}, ok: true}
	}
	missed := peer(0)
	missed.ok = false
	cold := peer(0)
	cold.hb.Ready = false
	saturated := peer(0)
	saturated.hb.Saturated = true
	for _, c := range []struct {
		name  string
		views []edgeView
		want  int
	}{
		{"missed the round", []edgeView{missed, peer(2)}, 1},
		{"not ready", []edgeView{cold, peer(2)}, 1},
		{"saturated", []edgeView{saturated, peer(2)}, 1},
		{"least backlog", []edgeView{peer(3), peer(1), peer(2)}, 1},
		{"tie to the lower index", []edgeView{peer(2), peer(1), peer(1)}, 1},
		{"no qualified peer", []edgeView{missed, cold, saturated}, -1},
		{"no peers", nil, -1},
	} {
		if got := stealTarget(c.views); got != c.want {
			t.Errorf("%s: stealTarget = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestStartEdgeRejectsBadLinks checks that StartEdge refuses a malformed
// cloud or peer link before it starts anything: no edge metric is
// registered, so the registry writes nothing.
func TestStartEdgeRejectsBadLinks(t *testing.T) {
	bad := netem.Link{Latency: -time.Millisecond}
	for _, c := range []struct {
		name string
		cfg  EdgeConfig
	}{
		{"cloud link", EdgeConfig{CloudAddr: "127.0.0.1:1", CloudLink: bad}},
		{"peer link", EdgeConfig{PeerLink: bad}},
	} {
		reg := telemetry.NewRegistry()
		cfg := c.cfg
		cfg.Addr, cfg.FLOPS, cfg.Model, cfg.TimeScale, cfg.Metrics = "127.0.0.1:0", 6e10, testModel(), testScale, reg
		if e, err := StartEdge(cfg); err == nil {
			_ = e.Close()
			t.Errorf("%s: StartEdge accepted latency %v", c.name, bad.Latency)
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatalf("%s: WritePrometheus: %v", c.name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: refused edge left metrics:\n%s", c.name, buf.String())
		}
	}
}

// TestFailedStartEdgeFreesItsGauges starts an edge on a port already in
// use, so its listener fails, then a working edge on the same registry:
// the registry's leime_edge_ready gauge must read the working edge, which
// is ready once a tenant registers, not the edge that never started.
func TestFailedStartEdgeFreesItsGauges(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer held.Close()
	reg := telemetry.NewRegistry()
	cfg := EdgeConfig{Addr: held.Addr().String(), FLOPS: 6e10, Model: testModel(), TimeScale: testScale, Metrics: reg}
	if e, err := StartEdge(cfg); err == nil {
		_ = e.Close()
		t.Fatalf("StartEdge on held port %s succeeded", cfg.Addr)
	}
	cfg.Addr = "127.0.0.1:0"
	e := startFederatedEdge(t, cfg)
	registerAt(t, e.Addr(), "dev")
	if !e.Ready() {
		t.Fatal("edge not ready after a registration")
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(buf.String(), "\nleime_edge_ready 1\n") {
		t.Errorf("scrape does not read the working edge as ready:\n%s", buf.String())
	}
}

// TestStealRidesPeerLink checks that PeerLink shapes the steal path: an
// edge that refuses every task by admission steals each to its peer, so
// every answered call pays at least the scaled peer latency on the way
// out (a shaped write never lands early).
func TestStealRidesPeerLink(t *testing.T) {
	edgeB := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
	})
	// The peer latency scales to 20 ms, under peerEvery, so heartbeats
	// still reach B. A budget below one first-block task's service time
	// (0.1 s at A's full share) refuses every task at A.
	peerLink := netem.Link{Latency: 2 * time.Second}
	regA := telemetry.NewRegistry()
	edgeA := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 2e9, Model: testModel(), TimeScale: testScale,
		Policy: ControlPolicy{MaxBacklogSec: 0.01},
		Peers:  []string{edgeB.Addr()}, PeerLink: peerLink, Metrics: regA,
	})
	registerAt(t, edgeB.Addr(), "res-b")
	src := registerAt(t, edgeA.Addr(), "src")
	waitReadyPeers(t, edgeA, 1)

	floor := testScale.scaled(peerLink.Latency)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := src.Call(context.Background(), FirstBlockReq{DeviceID: "src", TaskID: uint64(i + 1), Payload: []byte{1}, ExitStage: 1}); err != nil {
			t.Fatalf("task %d: %v", i+1, err)
		}
		if took := time.Since(start); took < floor {
			t.Errorf("stolen task %d took %v, under the scaled peer latency %v", i+1, took, floor)
		}
	}
	if got := steals(regA, "out"); got != 3 {
		t.Errorf("edge stole %d tasks, want 3", got)
	}
}

// TestStolenTaskKeepsExitCap saturates an edge whose degradation plan caps
// its one tenant at exit 1 with a burst of exit-3 first blocks. Whether the
// edge serves a task itself or its peer steals it, the answer is no deeper
// than the cap, and leime_edge_exit_degraded_total counts every answered
// task, since each one was capped.
func TestStolenTaskKeepsExitCap(t *testing.T) {
	peer := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
	})
	reg := telemetry.NewRegistry()
	edge := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 2e9, Model: testModel(), TimeScale: testScale,
		Policy: ControlPolicy{MaxBacklogSec: 0.15, Degrade: DegradePolicy{Enabled: true}},
		Peers:  []string{peer.Addr()}, Metrics: reg,
	})
	registerAt(t, peer.Addr(), "res")
	src, err := rpc.Dial(edge.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer src.Close()
	// The declared rate far exceeds the edge's budget, so Plan caps the
	// tenant at exit 1.
	if _, err := src.Call(context.Background(), RegisterReq{DeviceID: "src", FLOPS: 1e9, ArrivalMean: 1e4}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if tn, _, _ := edge.tenantSnapshot("src"); atomic.LoadInt32(&tn.exitCap) != 1 {
		t.Fatalf("exit cap %d, want 1", atomic.LoadInt32(&tn.exitCap))
	}
	waitReadyPeers(t, edge, 1)

	const burst = 24
	exits := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if got, err := src.Call(ctx, FirstBlockReq{DeviceID: "src", TaskID: uint64(i + 1), Payload: []byte{1}, ExitStage: 3}); err == nil {
				exits <- got.(TaskResp).ExitStage
			}
		}(i)
	}
	wg.Wait()
	close(exits)
	answered, deeper := 0, 0
	for exit := range exits {
		answered++
		if exit > 1 {
			deeper++
		}
	}
	if steals(reg, "out") == 0 {
		t.Fatal("saturated edge never stole; burst too lenient")
	}
	if deeper != 0 {
		t.Errorf("%d of %d answered tasks left deeper than the exit-1 cap", deeper, answered)
	}
	if got := reg.Counter("leime_edge_exit_degraded_total", "").Value(); got != uint64(answered) {
		t.Errorf("leime_edge_exit_degraded_total = %d, want %d: one per answered capped task", got, answered)
	}
}

// TestFleetChaosKillOneOfThreeEdges is the federation chaos acceptance
// test: devices selecting over three edges lose one mid-run, must re-select
// a survivor (observable as migrations), never hang, and complete every
// generated task.
func TestFleetChaosKillOneOfThreeEdges(t *testing.T) {
	const edges = 3
	cfgs := make([]EdgeConfig, edges)
	for i := range cfgs {
		cfgs[i] = EdgeConfig{
			FLOPS: 6e10, Model: testModel(),
			CloudLink: netem.Link{BandwidthBps: 5e7, Latency: 10 * time.Millisecond},
			TimeScale: testScale,
		}
	}
	tb, err := StartTestbed(testCloudConfig(), cfgs)
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	defer tb.Close()
	fleetEdges := tb.Edges
	addrs := make([]string, edges)
	for i, e := range fleetEdges {
		addrs[i] = e.Addr()
	}

	const devices = 4
	type outcome struct {
		id    string
		stats *DeviceStats
		err   error
	}
	results := make(chan outcome, devices)
	homes := make(map[int]bool) // edge indices hosting at least one device
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("fchaos-%d", i)
		h := fnv.New32a()
		_, _ = h.Write([]byte(id))
		homes[int(h.Sum32()%edges)] = true
		go func(i int, id string) {
			cfg := testDeviceConfig("", id)
			cfg.EdgeAddrs = append([]string(nil), addrs...)
			eOnly := offload.EdgeOnly()
			cfg.Policy = &eOnly // insist on offloading: only faults force local work
			cfg.ArrivalMean = 4
			cfg.Slots = 50
			cfg.AdaptEvery = 2
			cfg.Seed = int64(211 + i*7)
			cfg.Retry = rpc.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 15 * time.Millisecond}
			cfg.Breaker = rpc.BreakerConfig{FailureThreshold: 3, Cooldown: 40 * time.Millisecond}
			stats, err := RunDevice(cfg)
			results <- outcome{id: id, stats: stats, err: err}
		}(i, id)
	}

	// Kill an edge that is actually somebody's home, while the run is hot,
	// and never bring it back: survivors must absorb the tenancies.
	victim := 0
	for i := 0; i < edges; i++ {
		if homes[i] {
			victim = i
			break
		}
	}
	time.Sleep(120 * time.Millisecond)
	if err := fleetEdges[victim].Close(); err != nil {
		t.Fatalf("killing edge %d: %v", victim, err)
	}

	migrations := 0
	for i := 0; i < devices; i++ {
		var got outcome
		select {
		case got = <-results:
		case <-time.After(60 * time.Second):
			t.Fatal("device run hung after edge kill")
		}
		if got.err != nil {
			t.Fatalf("device %s failed: %v", got.id, got.err)
		}
		if got.stats.Errors != 0 {
			t.Errorf("device %s: %d task errors", got.id, got.stats.Errors)
		}
		if got.stats.Completed != got.stats.Generated {
			t.Errorf("device %s: conservation %d != %d", got.id, got.stats.Completed, got.stats.Generated)
		}
		migrations += got.stats.Migrations
	}
	if migrations == 0 {
		t.Error("no device migrated off the killed edge")
	}
}
