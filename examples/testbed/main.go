// Testbed: spin up the full LEIME prototype in one process — a cloud server,
// an edge server and two heterogeneous devices (a Raspberry Pi running
// Inception v3 and a Jetson Nano running SqueezeNet) talking over real
// loopback TCP with netem-shaped links — and run a compressed-time workload
// through it. The edge serves each tenant with its own model (per-tenant
// block FLOPs and exit rates), the Docker-multi-app equivalent.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"leime"
	"leime/internal/netem"
	"leime/internal/runtime"
)

// scale compresses testbed time 50x so the example finishes in seconds.
const scale = runtime.Scale(0.02)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := leime.Build(leime.Options{
		Arch: "inception-v3",
		Env:  leime.TestbedEnv(leime.RaspberryPi3B),
	})
	if err != nil {
		return err
	}
	nanoSys, err := leime.Build(leime.Options{
		Arch: "squeezenet-1.0",
		Env:  leime.TestbedEnv(leime.JetsonNano),
	})
	if err != nil {
		return err
	}
	params := sys.Params()
	e1, e2, e3 := sys.Exits()
	n1, n2, n3 := nanoSys.Exits()
	fmt.Printf("== LEIME testbed over real TCP (time scale %gx)\n", 1/float64(scale))
	fmt.Printf("   pi-1 runs %s{exit-%d,exit-%d,exit-%d}\n", sys.Arch(), e1, e2, e3)
	fmt.Printf("   nano-1 runs %s{exit-%d,exit-%d,exit-%d} (per-tenant model at the edge)\n",
		nanoSys.Arch(), n1, n2, n3)

	tb, err := runtime.StartTestbed(runtime.CloudConfig{
		FLOPS:       leime.CloudV100.FLOPS,
		Block3FLOPs: params.Mu[2],
		TimeScale:   scale,
	}, []runtime.EdgeConfig{{
		FLOPS:     leime.EdgeDesktop.FLOPS,
		Model:     params,
		CloudLink: netem.Link{BandwidthBps: leime.Mbps(50), Latency: 30 * time.Millisecond},
		TimeScale: scale,
	}})
	if err != nil {
		return err
	}
	defer tb.Close()
	edgeAddr := tb.Edges[0].Addr()
	fmt.Printf("cloud on %s, edge on %s\n\n", tb.Cloud.Addr(), edgeAddr)

	devices := []struct {
		id    string
		node  leime.Node
		model leime.ModelParams
		rate  float64
		seed  int64
		wifi  float64 // Mbps
		delay time.Duration
	}{
		{"pi-1", leime.RaspberryPi3B, sys.Params(), 4, 11, 8, 25 * time.Millisecond},
		{"nano-1", leime.JetsonNano, nanoSys.Params(), 8, 22, 20, 15 * time.Millisecond},
	}

	var wg sync.WaitGroup
	stats := make([]*runtime.DeviceStats, len(devices))
	errs := make([]error, len(devices))
	for i, d := range devices {
		wg.Add(1)
		go func(i int, d struct {
			id    string
			node  leime.Node
			model leime.ModelParams
			rate  float64
			seed  int64
			wifi  float64
			delay time.Duration
		}) {
			defer wg.Done()
			stats[i], errs[i] = runtime.RunDevice(runtime.DeviceConfig{
				ID:       d.id,
				FLOPS:    d.node.FLOPS,
				Model:    d.model,
				EdgeAddr: edgeAddr,
				Uplink: netem.Link{
					BandwidthBps: leime.Mbps(d.wifi),
					Latency:      d.delay,
					Jitter:       2 * time.Millisecond,
				},
				ArrivalMean: d.rate,
				TauSec:      1,
				V:           1e4,
				Slots:       40,
				WarmupSlots: 5,
				TimeScale:   scale,
				Seed:        d.seed,
			})
		}(i, d)
	}
	wg.Wait()

	for i, d := range devices {
		if errs[i] != nil {
			return fmt.Errorf("device %s: %w", d.id, errs[i])
		}
		s := stats[i]
		fmt.Printf("%-7s (%s, %.0f Mbps WiFi): %d tasks, exits [%d %d %d], errors %d\n",
			d.id, d.node.Name, d.wifi, s.Completed,
			s.ExitCounts[0], s.ExitCounts[1], s.ExitCounts[2], s.Errors)
		fmt.Printf("        TCT mean %.0f ms, p50 %.0f ms, p99 %.0f ms; mean offload ratio %.2f\n",
			s.TCT.Mean()*1000, s.TCT.Percentile(50)*1000, s.TCT.Percentile(99)*1000, s.Ratio.Mean())
		fmt.Printf("        stages: %.0f ms on-device + %.0f ms network/edge/cloud\n",
			s.LocalStage.Mean()*1000, s.RemoteStage.Mean()*1000)
	}
	return nil
}
