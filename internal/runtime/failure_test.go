package runtime

import (
	"testing"
	"time"

	"leime/internal/netem"
)

func TestDeviceSurvivesCloudFailure(t *testing.T) {
	// The cloud dies mid-run: the edge degrades third-block tasks to the
	// Second exit instead of failing them, so every task still completes
	// with zero errors and the run finishes (no hang).
	tb, err := StartTestbed(testCloudConfig(), []EdgeConfig{{
		FLOPS:     6e10,
		Model:     testModel(),
		CloudLink: netem.Link{BandwidthBps: 5e7, Latency: 10 * time.Millisecond},
		TimeScale: testScale,
	}})
	if err != nil {
		t.Fatalf("StartTestbed: %v", err)
	}
	defer tb.Close()

	// Kill the cloud shortly after the run starts.
	killed := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		_ = tb.Cloud.Close()
		close(killed)
	}()

	cfg := testDeviceConfig(tb.Edges[0].Addr(), "survivor")
	cfg.Slots = 40
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	<-killed
	if stats.Completed != stats.Generated {
		t.Errorf("accounting broken: completed %d != generated %d", stats.Completed, stats.Generated)
	}
	if stats.Errors != 0 {
		t.Errorf("%d task errors; cloud failure should degrade to exit 2, not fail", stats.Errors)
	}
	successes := stats.ExitCounts[0] + stats.ExitCounts[1] + stats.ExitCounts[2]
	if successes != stats.Generated {
		t.Errorf("only %d of %d tasks exited", successes, stats.Generated)
	}
}

func TestRunDeviceUnreachableEdge(t *testing.T) {
	cfg := testDeviceConfig("127.0.0.1:1", "lost")
	if _, err := RunDevice(cfg); err == nil {
		t.Error("device connected to an unreachable edge")
	}
}

func TestEdgeStartsWithUnreachableCloudAndDegrades(t *testing.T) {
	// The cloud connection is lazy: an edge whose cloud is down still
	// starts, serves two-exit work normally, and degrades exit-3 tasks to
	// the Second exit.
	edge, err := StartEdge(EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     6e10,
		Model:     testModel(),
		CloudAddr: "127.0.0.1:1",
		TimeScale: testScale,
	})
	if err != nil {
		t.Fatalf("StartEdge with unreachable cloud: %v", err)
	}
	defer edge.Close()
	cfg := testDeviceConfig(edge.Addr(), "cloudless")
	cfg.Slots = 20
	stats, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Errors != 0 {
		t.Errorf("%d task errors; unreachable cloud should degrade, not fail", stats.Errors)
	}
	if stats.Completed != stats.Generated {
		t.Errorf("conservation: %d != %d", stats.Completed, stats.Generated)
	}
	if stats.ExitCounts[2] != 0 {
		t.Errorf("%d tasks claim exit 3 with no reachable cloud", stats.ExitCounts[2])
	}
}

func TestConcurrentRegistrationAndTraffic(t *testing.T) {
	// Devices registering while others are mid-run (shares rebalancing
	// underneath live traffic) must not corrupt anything.
	edge := startTestbed(t)
	first := make(chan error, 1)
	go func() {
		cfg := testDeviceConfig(edge.Addr(), "early")
		cfg.Slots = 30
		_, err := RunDevice(cfg)
		first <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cfg := testDeviceConfig(edge.Addr(), "late")
	cfg.Slots = 15
	cfg.Seed = 99
	late, err := RunDevice(cfg)
	if err != nil {
		t.Fatalf("late device: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("early device: %v", err)
	}
	if late.Errors != 0 {
		t.Errorf("late device saw %d errors during rebalancing", late.Errors)
	}
}

func TestNoFallbacksWithoutAdmissionControl(t *testing.T) {
	edge := startTestbed(t)
	stats, err := RunDevice(testDeviceConfig(edge.Addr(), "free"))
	if err != nil {
		t.Fatalf("RunDevice: %v", err)
	}
	if stats.Fallbacks != 0 {
		t.Errorf("fallbacks counted with no backlog cap: %d", stats.Fallbacks)
	}
}
