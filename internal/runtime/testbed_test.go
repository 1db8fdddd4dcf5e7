package runtime

import (
	"net"
	"reflect"
	"testing"
	"time"

	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/trace"
)

// TestStartTestbedPeersInStartOrder starts three edges and checks the one
// topology the builder wires: edge i peers with exactly the i edges started
// before it, and every edge forwards to the cloud.
func TestStartTestbedPeersInStartOrder(t *testing.T) {
	model := testModel()
	model.Sigma = [3]float64{0, 0, 1} // every task survives to the cloud exit
	edge := EdgeConfig{FLOPS: 6e10, Model: model, TimeScale: testScale}
	tb, err := StartTestbed(testCloudConfig(), []EdgeConfig{edge, edge, edge})
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	defer tb.Close()

	addrs := make([]string, len(tb.Edges))
	for i, e := range tb.Edges {
		addrs[i] = e.Addr()
	}
	for i, e := range tb.Edges {
		if e.cfg.CloudAddr != tb.Cloud.Addr() {
			t.Errorf("edge %d forwards to %q, want the cloud %q", i, e.cfg.CloudAddr, tb.Cloud.Addr())
		}
		if i == 0 {
			if e.peerClients != nil || len(e.cfg.Peers) != 0 {
				t.Errorf("edge 0 has peers %v; nothing started before it", e.cfg.Peers)
			}
			continue
		}
		if !reflect.DeepEqual(e.cfg.Peers, addrs[:i]) {
			t.Errorf("edge %d peers = %v, want %v", i, e.cfg.Peers, addrs[:i])
		}
		if len(e.peerClients) != i {
			t.Errorf("edge %d dials %d peers, want %d", i, len(e.peerClients), i)
		}
	}

	offloadAll := offload.Policy{
		Name:   "all",
		Decide: func(*offload.Controller, offload.Device, offload.Slot) float64 { return 1 },
	}
	cfg := testDeviceConfig(addrs[len(addrs)-1], "dev-testbed")
	cfg.Model = model
	cfg.Arrivals = &trace.Constant{PerSlot: 1}
	cfg.Policy = &offloadAll
	cfg.Slots = 1
	cfg.WarmupSlots = 0
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.ExitCounts[2] != 1 || stats.Errors != 0 {
		t.Errorf("want one task served by the cloud exit, got exits %v, errors %d", stats.ExitCounts, stats.Errors)
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestStartTestbedUnwindsOnFailure fails the second edge and checks the
// builder closes the cloud and the first edge before returning the error.
func TestStartTestbedUnwindsOnFailure(t *testing.T) {
	cloud := testCloudConfig()
	cloud.Addr = freeAddr(t)
	first := EdgeConfig{Addr: freeAddr(t), FLOPS: 6e10, Model: testModel(), TimeScale: testScale}
	bad := first
	bad.Addr = ""
	bad.FLOPS = 0
	tb, err := StartTestbed(cloud, []EdgeConfig{first, bad})
	if err == nil {
		tb.Close()
		t.Fatal("StartTestbed accepted an edge with zero FLOPS")
	}
	for name, addr := range map[string]string{"cloud": cloud.Addr, "first edge": first.Addr} {
		if c, err := rpc.Dial(addr, nil); err == nil {
			_ = c.Close()
			t.Errorf("%s on %s still accepts connections after the failed start", name, addr)
		}
	}
}

// TestTestbedCloseAfterCloudClosed closes the cloud out from under the
// testbed, as a chaos test does, and checks Close still returns.
func TestTestbedCloseAfterCloudClosed(t *testing.T) {
	tb, err := StartTestbed(testCloudConfig(), []EdgeConfig{{FLOPS: 6e10, Model: testModel(), TimeScale: testScale}})
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	if err := tb.Cloud.Close(); err != nil {
		t.Fatalf("closing the cloud: %v", err)
	}
	done := make(chan struct{})
	go func() {
		tb.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after the cloud was already closed")
	}
}
