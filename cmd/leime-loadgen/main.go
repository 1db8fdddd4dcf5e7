// Command leime-loadgen is the open-loop load harness: N synthetic devices
// offer first-block work to an edge fleet at a configured rate and the tool
// reports achieved throughput, the completion-latency distribution and the
// rejection/shed counts as JSON. Point it at live edges with -edge (comma
// separated; devices split across them), or let it spin up an in-process
// testbed (the default) of -edges peered edge servers plus a cloud to probe
// batching, admission-control and federation settings without deploying
// anything.
//
// A single run measures one offered rate; -rate-sweep walks a list of rates
// and emits the saturation report the capacity model in DESIGN.md §11 is
// calibrated against: achieved-vs-offered locates the knee, p99-vs-offered
// shows the latency cliff past it. -edge-sweep instead walks fleet sizes at
// a fixed rate and reports the federation scaling factor per size (DESIGN.md
// §14). -kill-edge/-kill-after inject a mid-run edge failure to exercise the
// harness's reroute path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leime"
	"leime/internal/loadgen"
	"leime/internal/policyflag"
	"leime/internal/runtime"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leime-loadgen:", err)
		os.Exit(1)
	}
}

// run is the tool body; main wires it to os.Args, stdout and signals, and
// tests drive it directly.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("leime-loadgen", flag.ContinueOnError)
	var (
		edgeAddr  = fs.String("edge", "", "comma-separated edge servers to drive (empty = spin up an in-process testbed)")
		arch      = fs.String("arch", "inception-v3", "DNN profile (payload sizes and exit rates)")
		devices   = fs.Int("devices", 4, "synthetic devices to register")
		rate      = fs.Float64("rate", 5, "offered rate per device in tasks/sec")
		rateSweep = fs.String("rate-sweep", "", "comma-separated per-device rates; runs each and emits a saturation report")
		arrival   = fs.String("arrival", "poisson", "arrival process: poisson or constant")
		duration  = fs.Duration("duration", 2*time.Second, "generation horizon per run")
		seed      = fs.Int64("seed", 1, "schedule seed (equal seeds offer identical schedules)")
		timeout   = fs.Duration("timeout", 0, "per-task deadline (0 = none); expiries count as sheds")
		forceExit = fs.Int("exit", 0, "pin every task's exit stage 1..3 (0 = sample from the model's exit rates)")
		devFLOPS  = fs.Float64("device-flops", 1e9, "capability each synthetic device registers with")
		minDone   = fs.Int("min-completed", 0, "exit nonzero unless at least this many tasks complete (CI smoke)")

		deadline        = fs.Float64("deadline", 0, "per-task latency budget base in seconds from each task's scheduled arrival, jittered ±25%% per task; rides the RPC so deadline admission can read it (0 = none)")
		tenantDeadlines = fs.String("tenant-deadlines", "", "comma-separated per-device deadline bases in seconds (device i draws entry i mod len); overrides -deadline")

		edgeCount  = fs.Int("edges", 1, "in-process testbed: number of peered edge servers")
		edgeSweep  = fs.String("edge-sweep", "", "comma-separated in-process fleet sizes; runs each and reports federation scaling")
		killEdge   = fs.Int("kill-edge", -1, "in-process testbed: edge index to kill mid-run (-1 = none)")
		killAfter  = fs.Duration("kill-after", 500*time.Millisecond, "in-process testbed: delay before -kill-edge strikes")
		edgeFLOPS  = fs.Float64("edge-flops", leime.EdgeDesktop.FLOPS, "in-process testbed: edge capability in FLOPS")
		cloudFLOPS = fs.Float64("cloud-flops", leime.CloudV100.FLOPS, "in-process testbed: cloud capability in FLOPS")
		scale      = fs.Float64("scale", 1, "in-process testbed: time compression factor")
		policyVals = policyflag.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := policyVals.Policy()
	if err != nil {
		return err
	}
	tenantBases, err := parseRatesAllowEmpty(*tenantDeadlines, "-tenant-deadlines")
	if err != nil {
		return err
	}

	sys, err := leime.Build(leime.Options{Arch: *arch, Env: leime.TestbedEnv(leime.RaspberryPi3B)})
	if err != nil {
		return err
	}
	params := sys.Params()
	tb := testbedSpec{
		cloud: runtime.CloudConfig{
			FLOPS:       *cloudFLOPS,
			Block3FLOPs: params.Mu[2],
			TimeScale:   runtime.Scale(*scale),
		},
		edge: runtime.EdgeConfig{
			FLOPS:     *edgeFLOPS,
			Model:     params,
			TimeScale: runtime.Scale(*scale),
			Policy:    policy,
		},
	}

	cfg := loadgen.Config{
		Devices:           *devices,
		Rate:              *rate,
		Arrival:           *arrival,
		Duration:          *duration,
		Seed:              *seed,
		Model:             params,
		DeviceFLOPS:       *devFLOPS,
		Timeout:           *timeout,
		ForceExit:         *forceExit,
		DeadlineSec:       *deadline,
		TenantDeadlineSec: tenantBases,
	}

	var addrs []string
	if *edgeAddr != "" {
		if *edgeSweep != "" {
			return fmt.Errorf("-edge-sweep needs the in-process testbed; drop -edge")
		}
		if *killEdge >= 0 {
			return fmt.Errorf("-kill-edge needs the in-process testbed; drop -edge")
		}
		addrs = splitAddrs(*edgeAddr)
	} else if *edgeSweep == "" {
		var fleetTB *runtime.Testbed
		fleetTB, addrs, err = tb.start(*edgeCount)
		if err != nil {
			return err
		}
		defer fleetTB.Close()
		fmt.Fprintf(os.Stderr, "leime-loadgen: in-process testbed, %d edge(s) on %s (edge %.3g FLOPS, cloud %.3g FLOPS, scale %g)\n",
			len(addrs), strings.Join(addrs, ","), *edgeFLOPS, *cloudFLOPS, *scale)
		if *killEdge >= 0 {
			if *killEdge >= len(fleetTB.Edges) {
				return fmt.Errorf("-kill-edge %d out of range (fleet has %d edges)", *killEdge, len(fleetTB.Edges))
			}
			go func(victim *runtime.Edge, after time.Duration) {
				t := time.NewTimer(after)
				defer t.Stop()
				select {
				case <-t.C:
					fmt.Fprintf(os.Stderr, "leime-loadgen: killing edge %d (%s)\n", *killEdge, victim.Addr())
					_ = victim.Close()
				case <-ctx.Done():
				}
			}(fleetTB.Edges[*killEdge], *killAfter)
		}
	}
	cfg.EdgeAddrs = addrs

	var report any
	completed := 0
	switch {
	case *edgeSweep != "":
		sizes, err := parseSizes(*edgeSweep)
		if err != nil {
			return err
		}
		fed, err := runEdgeSweep(ctx, cfg, tb, sizes)
		if err != nil {
			return err
		}
		for _, p := range fed.Points {
			completed += p.Result.Completed
		}
		report = fed
	case *rateSweep != "":
		rates, err := parseRates(*rateSweep)
		if err != nil {
			return err
		}
		sweep, err := loadgen.Sweep(ctx, cfg, rates)
		if err != nil {
			return err
		}
		for _, p := range sweep.Points {
			completed += p.Completed
		}
		report = sweep
	default:
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			return err
		}
		completed = res.Completed
		report = res
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if *minDone > 0 && completed < *minDone {
		return fmt.Errorf("completed %d tasks, below the -min-completed floor %d", completed, *minDone)
	}
	return nil
}

// testbedSpec is the in-process testbed every fleet the tool spins up
// shares: the cloud, and the config each edge starts from.
type testbedSpec struct {
	cloud runtime.CloudConfig
	edge  runtime.EdgeConfig
}

// start brings up the cloud and n edges, each peered with the edges started
// before it, and returns the edges' addresses in start order.
func (tb testbedSpec) start(n int) (*runtime.Testbed, []string, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("fleet size %d must be positive", n)
	}
	edges := make([]runtime.EdgeConfig, n)
	for i := range edges {
		edges[i] = tb.edge
	}
	f, err := runtime.StartTestbed(tb.cloud, edges)
	if err != nil {
		return nil, nil, err
	}
	addrs := make([]string, n)
	for i, e := range f.Edges {
		addrs[i] = e.Addr()
	}
	return f, addrs, nil
}

// fedPoint is one fleet size's run in an edge sweep.
type fedPoint struct {
	// Edges is the fleet size of this point.
	Edges int `json:"edges"`
	// Result is the load report against that fleet.
	Result *loadgen.Result `json:"result"`
}

// fedReport is the federation scaling report of an -edge-sweep run.
type fedReport struct {
	// Points are the per-size runs, in sweep order.
	Points []fedPoint `json:"points"`
	// Scaling[i] is Points[i]'s sustained throughput (completions) over
	// Points[0]'s: how much capacity each fleet size buys relative to the
	// first. Linear federation scaling at sizes {1..N} reads 1, 2, .., N.
	Scaling []float64 `json:"scaling"`
}

// runEdgeSweep measures federation scaling: the same schedule offered to an
// in-process fleet of each size, fresh edges per point so tenant state and
// backlog never carry over.
func runEdgeSweep(ctx context.Context, base loadgen.Config, tb testbedSpec, sizes []int) (*fedReport, error) {
	out := &fedReport{}
	for i, n := range sizes {
		f, addrs, err := tb.start(n)
		if err != nil {
			return nil, fmt.Errorf("edge-sweep point %d edges: %w", n, err)
		}
		cfg := base
		cfg.EdgeAddr = ""
		cfg.EdgeAddrs = addrs
		cfg.IDPrefix = fmt.Sprintf("fed-e%d", i)
		res, err := loadgen.Run(ctx, cfg)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("edge-sweep point %d edges: %w", n, err)
		}
		out.Points = append(out.Points, fedPoint{Edges: n, Result: res})
	}
	base1 := out.Points[0].Result.Completed
	for _, p := range out.Points {
		s := 0.0
		if base1 > 0 {
			s = float64(p.Result.Completed) / float64(base1)
		}
		out.Scaling = append(out.Scaling, s)
	}
	return out, nil
}

// splitAddrs parses the comma-separated -edge list.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseSizes parses the -edge-sweep list of fleet sizes.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -edge-sweep entry %q: want positive fleet sizes", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-edge-sweep %q contains no sizes", s)
	}
	return out, nil
}

// parseRates parses the -rate-sweep list.
func parseRates(s string) ([]float64, error) {
	out, err := parseRatesAllowEmpty(s, "-rate-sweep")
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rate-sweep %q contains no rates", s)
	}
	return out, nil
}

// parseRatesAllowEmpty parses a comma-separated list of positive floats,
// returning nil for an empty list (the flag left at its default).
func parseRatesAllowEmpty(s, flagName string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad %s entry %q: want positive values", flagName, part)
		}
		out = append(out, r)
	}
	return out, nil
}
