package leime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"leime/internal/netem"
	"leime/internal/runtime"
)

// TestbedDevice configures one device of a local testbed run.
type TestbedDevice struct {
	// ID names the device; empty IDs are auto-numbered.
	ID string
	// Node is the hardware preset (e.g. leime.RaspberryPi3B).
	Node Node
	// ArrivalRate is the mean tasks per slot.
	ArrivalRate float64
	// UplinkMbps and UplinkLatency shape the device-edge WiFi path
	// (defaults: 10 Mbps, 20 ms).
	UplinkMbps    float64
	UplinkLatency time.Duration
	// Policy overrides the offloading policy (nil = LEIME's).
	Policy *Policy
}

// TestbedOptions configure RunLocalTestbed.
type TestbedOptions struct {
	// Devices is the fleet; at least one entry.
	Devices []TestbedDevice
	// Slots is the per-device horizon (default 40).
	Slots int
	// TimeScale compresses wall-clock time; 0 defaults to 0.02 (50x faster
	// than real time).
	TimeScale float64
	// Seed fixes randomness (default 1). Use SeedZero for the literal
	// seed 0.
	Seed int64
	// TaskDeadlineSec, when positive, gives every task a completion budget
	// in model seconds; the deadline travels with each RPC so the edge and
	// cloud shed work that can no longer finish in time. Zero disables
	// deadlines.
	TaskDeadlineSec float64
	// Retry caps re-sends of idempotent control-plane requests after
	// transport failures (zero value = library defaults).
	Retry RetryPolicy
	// Breaker tunes each device's per-edge circuit breaker; while it is
	// open the device degrades to device-only execution (zero value =
	// library defaults).
	Breaker BreakerConfig
	// EdgePolicy is the edge's control policy: backlog budget, deadline
	// admission, EDF queue ordering, static or adaptive batching, and
	// overload degradation. The zero value keeps the pinned degenerate
	// case — unbounded exact-FIFO queues, nothing adaptive.
	EdgePolicy PolicyOptions
}

// withDefaults resolves zero fields to their documented defaults and
// SeedZero to the literal seed 0.
func (o TestbedOptions) withDefaults() TestbedOptions {
	if o.Slots == 0 {
		o.Slots = 40
	}
	if o.TimeScale == 0 {
		o.TimeScale = 0.02
	}
	switch o.Seed {
	case 0:
		o.Seed = 1
	case SeedZero:
		o.Seed = 0
	}
	return o
}

// TestbedResult holds per-device outcomes of a local testbed run, in the
// order the devices were configured.
type TestbedResult struct {
	// Stats are the per-device completion statistics.
	Stats []*runtime.DeviceStats
}

// RunLocalTestbed spins up the full LEIME prototype in-process — a cloud
// server, an edge server and the configured devices, all speaking real TCP
// over loopback with netem-shaped links — runs the workload, and tears
// everything down. It is the programmatic form of the three
// cmd/leime-{cloud,edge,device} binaries.
func (s *System) RunLocalTestbed(opts TestbedOptions) (*TestbedResult, error) {
	if len(opts.Devices) == 0 {
		return nil, errors.New("leime: testbed needs at least one device")
	}
	opts = opts.withDefaults()
	scale := runtime.Scale(opts.TimeScale)
	params := s.Params()

	tb, err := runtime.StartTestbed(runtime.CloudConfig{
		FLOPS:       s.env.CloudFLOPS,
		Block3FLOPs: params.Mu[2],
		TimeScale:   scale,
	}, []runtime.EdgeConfig{{
		FLOPS: s.env.EdgeFLOPS,
		Model: params,
		CloudLink: netem.Link{
			BandwidthBps: s.env.EdgeCloud.BandwidthBps,
			Latency:      time.Duration(s.env.EdgeCloud.LatencySec * float64(time.Second)),
		},
		TimeScale: scale,
		Policy:    opts.EdgePolicy,
	}})
	if err != nil {
		return nil, fmt.Errorf("leime: testbed: %w", err)
	}
	defer tb.Close()
	edgeAddr := tb.Edges[0].Addr()

	res := &TestbedResult{Stats: make([]*runtime.DeviceStats, len(opts.Devices))}
	errs := make([]error, len(opts.Devices))
	var wg sync.WaitGroup
	for i, d := range opts.Devices {
		if d.ID == "" {
			d.ID = fmt.Sprintf("device-%d", i+1)
		}
		if d.UplinkMbps == 0 {
			d.UplinkMbps = 10
		}
		if d.UplinkLatency == 0 {
			d.UplinkLatency = 20 * time.Millisecond
		}
		if d.ArrivalRate == 0 {
			d.ArrivalRate = 4
		}
		wg.Add(1)
		go func(i int, d TestbedDevice) {
			defer wg.Done()
			res.Stats[i], errs[i] = runtime.RunDevice(runtime.DeviceConfig{
				ID:       d.ID,
				FLOPS:    d.Node.FLOPS,
				Model:    params,
				EdgeAddr: edgeAddr,
				Uplink: netem.Link{
					BandwidthBps: Mbps(d.UplinkMbps),
					Latency:      d.UplinkLatency,
				},
				ArrivalMean:     d.ArrivalRate,
				Policy:          d.Policy,
				TauSec:          1,
				V:               1e4,
				Slots:           opts.Slots,
				WarmupSlots:     opts.Slots / 10,
				TimeScale:       scale,
				AdaptEvery:      10,
				TaskDeadlineSec: opts.TaskDeadlineSec,
				Retry:           opts.Retry,
				Breaker:         opts.Breaker,
				Seed:            opts.Seed + int64(i)*97,
			})
		}(i, d)
	}
	wg.Wait()
	return res, errors.Join(errs...)
}
