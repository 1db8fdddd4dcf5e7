// Command leime-device runs one end device of the LEIME testbed: it
// registers with an edge server, generates inference tasks, runs the online
// offloading controller and prints completion statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"leime"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/partition"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/telemetry"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "leime-device:", err)
		os.Exit(1)
	}
}

// run is the daemon body; main wires it to os.Args, stdout and signals, and
// tests drive it directly with a synthetic stop channel. On stop the device
// abandons remaining slots, drains in-flight tasks and still prints its
// statistics.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("leime-device", flag.ContinueOnError)
	var (
		id       = fs.String("id", "device-1", "device identifier")
		edgeAddr = fs.String("edge", "127.0.0.1:7102", "comma-separated edge server addresses; more than one enables Lyapunov-aware edge selection")
		arch     = fs.String("arch", "inception-v3", "DNN profile (must match the edge)")
		device   = fs.String("device", "pi", "hardware preset: pi or nano")
		rate     = fs.Float64("rate", 5, "mean task arrivals per slot")
		slots    = fs.Int("slots", 60, "number of slots to generate")
		bw       = fs.Float64("bandwidth", 10, "uplink bandwidth in Mbps")
		lat      = fs.Float64("latency", 0.02, "uplink latency in seconds")
		policy   = fs.String("policy", "leime", "offloading policy: leime, leime-centralized, device-only, edge-only, cap or fixed:<ratio>")
		scale    = fs.Float64("scale", 1, "time compression factor (1 = real time)")
		seed     = fs.Int64("seed", 1, "randomness seed")
		admin    = fs.String("admin", "", "admin HTTP address serving /metrics, /healthz, /readyz and /debug/traces (empty = telemetry off)")

		pipeline = fs.String("pipeline", "", "comma-separated edge worker addresses forming an inference chain; when set the device solves the min-latency cut with the partition solver and streams every task through the chain instead of classic offloading")
		pipeID   = fs.String("pipeline-id", "", "name the installed chain is addressed by; devices sharing it share stage state (default: the device id)")
		pipeFLOP = fs.String("pipeline-flops", "", "comma-separated per-worker FLOPS of the chain, matching -pipeline; a single value broadcasts to every worker (default: the desktop edge preset)")
		pipeBW   = fs.Float64("pipeline-bandwidth", 200, "worker-to-worker bandwidth in Mbps priced into the cut (the device-to-first-worker hop uses -bandwidth/-latency)")
		pipeLat  = fs.Float64("pipeline-latency", 0.002, "worker-to-worker latency in seconds priced into the cut")

		deadline   = fs.Float64("deadline", 0, "per-task completion budget in model seconds; RPCs carry it so remote tiers shed late work (0 = no deadlines)")
		retries    = fs.Int("retries", 0, "max attempts for idempotent control requests, first try included (0 = library default)")
		retryBase  = fs.Duration("retry-base", 0, "base backoff before the first retry (0 = library default)")
		breakAfter = fs.Int("break-after", 0, "consecutive transport failures that open the edge circuit breaker (0 = library default)")
		breakCool  = fs.Duration("break-cooldown", 0, "how long the breaker stays open before probing the edge again (0 = library default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var node leime.Node
	switch *device {
	case "pi":
		node = leime.RaspberryPi3B
	case "nano":
		node = leime.JetsonNano
	default:
		return fmt.Errorf("unknown device %q (want pi or nano)", *device)
	}
	pol, err := offload.ParsePolicy(*policy)
	if err != nil {
		return err
	}

	// Readiness flips once the device has registered with an edge and holds
	// a warm KKT share — before that it must not be treated as a traffic
	// source by orchestration probing /readyz.
	var registered atomic.Bool
	var tracer *telemetry.Tracer
	var reg *telemetry.Registry
	if *admin != "" {
		tracer = telemetry.NewTracer(4096)
		reg = telemetry.NewRegistry()
		runtime.RegisterWireMetrics(reg)
		adm, err := telemetry.ServeAdmin(*admin, reg, tracer, telemetry.WithReadiness(registered.Load))
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "leime-device: admin on %s\n", adm.Addr())
	}

	sys, err := leime.Build(leime.Options{Arch: *arch, Env: leime.TestbedEnv(node)})
	if err != nil {
		return err
	}
	edges := splitEdges(*edgeAddr)
	if len(edges) == 0 {
		return fmt.Errorf("-edge %q lists no addresses", *edgeAddr)
	}
	fmt.Fprintf(out, "leime-device %s: %s on %s, edge %s, policy %s, %d slots at rate %.1f\n",
		*id, *arch, node.Name, strings.Join(edges, ","), pol.Name, *slots, *rate)

	// Pipelined mode: price the chain with the partition solver before any
	// traffic flows. The first hop is the device uplink; every later hop is
	// the worker-to-worker link. ArrivalMean is per slot with TauSec = 1, so
	// it is already a per-second rate for the queueing term.
	var pipeAddrs []string
	var pipeStages []runtime.PipelineStage
	if *pipeline != "" {
		addrs := splitEdges(*pipeline)
		workerFLOPS, err := parseFLOPSList(*pipeFLOP, len(addrs))
		if err != nil {
			return err
		}
		chain := partition.Chain{
			Workers: make([]partition.Worker, len(addrs)),
			Hops:    make([]partition.Hop, len(addrs)),
		}
		for j := range addrs {
			chain.Workers[j] = partition.Worker{FLOPS: workerFLOPS[j]}
			if j == 0 {
				chain.Hops[j] = partition.Hop{BandwidthBps: leime.Mbps(*bw), LatencySec: *lat}
			} else {
				chain.Hops[j] = partition.Hop{BandwidthBps: leime.Mbps(*pipeBW), LatencySec: *pipeLat}
			}
		}
		plan, err := partition.Solve(partition.Config{Net: sys.MEDNN(), Chain: chain, ArrivalRate: *rate})
		if err != nil {
			return err
		}
		pipeAddrs = addrs[:len(plan.Stages)]
		pipeStages = runtime.PipelineFromPlan(plan)
		fmt.Fprintf(out, "leime-device %s: pipeline cut %v over %d of %d workers (expected %.4fs/task, sustains %.2f/s)\n",
			*id, plan.Cuts, len(plan.Stages), len(addrs), plan.ExpectedLatencySec, plan.SustainableRate)
	}

	stats, err := runtime.RunDevice(runtime.DeviceConfig{
		ID:            *id,
		FLOPS:         node.FLOPS,
		Model:         sys.Params(),
		EdgeAddrs:     edges,
		PipelineAddrs: pipeAddrs,
		Pipeline:      pipeStages,
		PipelineID:    *pipeID,
		Ready:         func() { registered.Store(true) },
		Uplink: netem.Link{
			BandwidthBps: leime.Mbps(*bw),
			Latency:      time.Duration(*lat * float64(time.Second)),
		},
		ArrivalMean:     *rate,
		Policy:          &pol,
		TauSec:          1,
		V:               1e4,
		Slots:           *slots,
		WarmupSlots:     *slots / 10,
		TimeScale:       runtime.Scale(*scale),
		TaskDeadlineSec: *deadline,
		Retry:           rpc.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase},
		Breaker:         rpc.BreakerConfig{FailureThreshold: *breakAfter, Cooldown: *breakCool},
		Seed:            *seed,
		Tracer:          tracer,
		Metrics:         reg,
		Stop:            stop,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tasks: generated=%d completed=%d errors=%d exits=[%d %d %d]\n",
		stats.Generated, stats.Completed, stats.Errors,
		stats.ExitCounts[0], stats.ExitCounts[1], stats.ExitCounts[2])
	fmt.Fprintf(out, "TCT: mean=%.4fs p50=%.4fs p99=%.4fs max=%.4fs (model seconds)\n",
		stats.TCT.Mean(), stats.TCT.Percentile(50), stats.TCT.Percentile(99), stats.TCT.Max())
	fmt.Fprintf(out, "mean offloading ratio: %.3f\n", stats.Ratio.Mean())
	fmt.Fprintf(out, "faults: degraded=%d fallbacks=%d deadline-misses=%d retries=%d breaker-opens=%d migrations=%d\n",
		stats.Degraded, stats.Fallbacks, stats.DeadlineMisses, stats.Retries, stats.BreakerOpens, stats.Migrations)
	return nil
}

// parseFLOPSList expands the comma-separated -pipeline-flops list to one
// value per chain worker: empty defaults every worker to the desktop edge
// preset, a single value broadcasts, and otherwise the list length must
// match the chain.
func parseFLOPSList(s string, n int) ([]float64, error) {
	out := make([]float64, n)
	if strings.TrimSpace(s) == "" {
		for i := range out {
			out[i] = leime.EdgeDesktop.FLOPS
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 1 && len(parts) != n {
		return nil, fmt.Errorf("-pipeline-flops lists %d values for %d workers", len(parts), n)
	}
	for i := range out {
		p := parts[0]
		if len(parts) == n {
			p = parts[i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-pipeline-flops entry %q is not a positive FLOPS value", p)
		}
		out[i] = v
	}
	return out, nil
}

// splitEdges parses the comma-separated -edge list.
func splitEdges(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
