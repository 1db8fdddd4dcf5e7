// Command leime-edge runs the edge tier of the LEIME testbed: it serves
// first- and second-block inference for registered devices with KKT resource
// shares, forwarding third-block work to a cloud server.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"leime"
	"leime/internal/netem"
	"leime/internal/policyflag"
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
		fmt.Fprintln(os.Stderr, "leime-edge:", err)
		os.Exit(1)
	}
}

// run is the daemon body; main wires it to os.Args, stdout and signals, and
// tests drive it directly with a synthetic stop channel.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("leime-edge", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7102", "listen address")
		arch      = fs.String("arch", "inception-v3", "DNN profile")
		flops     = fs.Float64("flops", leime.EdgeDesktop.FLOPS, "edge capability in FLOPS")
		cloudAddr = fs.String("cloud", "", "cloud server address (empty = no cloud tier)")
		cloudBW   = fs.Float64("cloud-bandwidth", 50, "edge-cloud bandwidth in Mbps")
		cloudLat  = fs.Float64("cloud-latency", 0.03, "edge-cloud latency in seconds")
		scale     = fs.Float64("scale", 1, "time compression factor (1 = real time)")
		admin     = fs.String("admin", "", "admin HTTP address serving /metrics, /healthz, /readyz and /debug/traces (empty = telemetry off)")
		peers     = fs.String("peers", "", "comma-separated sibling edge addresses; admission-rejected tasks are stolen to the least-loaded ready peer (one hop)")
		peerBW    = fs.Float64("peer-bandwidth", 200, "edge-to-edge bandwidth in Mbps shaping steals, peer heartbeats and pipeline activation forwards (0 = unshaped)")
		peerLat   = fs.Float64("peer-latency", 0.002, "edge-to-edge latency in seconds on steals, peer heartbeats and pipeline forwards; at 0.1 s or more (after -scale) no peer answers a heartbeat round in time, so nothing is stolen")

		retries    = fs.Int("cloud-retries", 0, "max attempts for idempotent cloud requests, first try included (0 = library default)")
		retryBase  = fs.Duration("cloud-retry-base", 0, "base backoff before the first cloud retry (0 = library default)")
		breakAfter = fs.Int("cloud-break-after", 0, "consecutive transport failures that open the cloud circuit breaker (0 = library default)")
		breakCool  = fs.Duration("cloud-break-cooldown", 0, "how long the cloud breaker stays open before probing again (0 = library default)")

		policyVals = policyflag.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := policyVals.Policy()
	if err != nil {
		return err
	}

	var tracer *telemetry.Tracer
	var reg *telemetry.Registry
	if *admin != "" {
		tracer = telemetry.NewTracer(4096)
		reg = telemetry.NewRegistry()
		runtime.RegisterWireMetrics(reg)
	}

	sys, err := leime.Build(leime.Options{Arch: *arch, Env: leime.TestbedEnv(leime.RaspberryPi3B)})
	if err != nil {
		return err
	}
	edge, err := runtime.StartEdge(runtime.EdgeConfig{
		Addr:      *addr,
		FLOPS:     *flops,
		Model:     sys.Params(),
		CloudAddr: *cloudAddr,
		CloudLink: netem.Link{
			BandwidthBps: leime.Mbps(*cloudBW),
			Latency:      time.Duration(*cloudLat * float64(time.Second)),
		},
		PeerLink: netem.Link{
			BandwidthBps: leime.Mbps(*peerBW),
			Latency:      time.Duration(*peerLat * float64(time.Second)),
		},
		TimeScale:    runtime.Scale(*scale),
		CloudRetry:   rpc.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase},
		CloudBreaker: rpc.BreakerConfig{FailureThreshold: *breakAfter, Cooldown: *breakCool},
		Policy:       policy,
		Peers:        splitPeers(*peers),
		Tracer:       tracer,
		Metrics:      reg,
	})
	if err != nil {
		return err
	}
	defer edge.Close()
	if *admin != "" {
		// Readiness is the federation gate: the edge answers 503 until its
		// KKT allocation is warm (at least one registered tenant), the same
		// predicate its heartbeat advertises to peers.
		adm, err := telemetry.ServeAdmin(*admin, reg, tracer, telemetry.WithReadiness(edge.Ready))
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "leime-edge: admin on %s\n", adm.Addr())
	}
	e1, e2, e3 := sys.Exits()
	fmt.Fprintf(out, "leime-edge: serving %s{exit-%d,exit-%d,exit-%d} on %s (%.3g FLOPS, cloud %q, scale %g)\n",
		*arch, e1, e2, e3, edge.Addr(), *flops, *cloudAddr, *scale)

	<-stop
	fmt.Fprintln(out, "leime-edge: shutting down")
	return nil
}

// splitPeers parses the comma-separated -peers list.
func splitPeers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
