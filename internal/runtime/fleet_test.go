package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"leime/internal/fleet"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
)

// testFleetConfig is a fast heartbeat cadence for compressed-time tests.
func testFleetConfig() fleet.Config {
	return fleet.Config{Every: 10 * time.Millisecond, SuspectAfter: 2}
}

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

// waitReadyPeers blocks until the edge's registry sees n ready peers.
func waitReadyPeers(t *testing.T, e *Edge, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(e.peers.Ready()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("peer registry never saw %d ready peers (have %d)", n, len(e.peers.Ready()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStealOneHopBound pins the structural one-hop property of work
// stealing: a saturated edge forwards rejected tasks to its peer, the peer
// executes them on spare capacity, and the stolen work is NEVER forwarded
// again — the peer's own peer sees zero steals, and an over-hop StealReq is
// rejected outright.
func TestStealOneHopBound(t *testing.T) {
	edgeC := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
	})
	edgeB := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
		Peers: []string{edgeC.Addr()}, Fleet: testFleetConfig(),
	})
	// A tiny backlog budget on a slow edge (about one first-block task at
	// full share) makes admission reject most of the burst below with
	// ErrOverloaded, forcing the steal path.
	edgeA := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 2e9, Model: testModel(), TimeScale: testScale,
		Policy: ControlPolicy{MaxBacklogSec: 0.15},
		Peers:  []string{edgeB.Addr()}, Fleet: testFleetConfig(),
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

	_, aOut, _ := edgeA.stealStats()
	bIn, bOut, _ := edgeB.stealStats()
	cIn, _, _ := edgeC.stealStats()
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
	if cInAfter, _, _ := edgeC.stealStats(); cInAfter != 0 {
		t.Errorf("over-hop steal leaked %d tasks to the second peer", cInAfter)
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
