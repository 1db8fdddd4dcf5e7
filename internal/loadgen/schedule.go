package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"leime/internal/offload"
)

// This file is the pure half of the harness: expanding a Config into its
// arrival schedule touches no clock and no shared randomness, so equal
// configs replay byte-identical schedules. The wall-clock dispatch loop
// lives in loadgen.go.

// Config parameterizes one load run against an edge server.
type Config struct {
	// EdgeAddr is the edge server to drive. When EdgeAddrs is set it is
	// folded into that list; setting just one of the two is enough.
	EdgeAddr string
	// EdgeAddrs is the edge fleet to drive. Each synthetic device homes at
	// edge (device index mod len(EdgeAddrs)) and registers only there; a
	// transport failure reroutes the device to the next live edge and
	// retries the task once. Empty defaults to [EdgeAddr].
	EdgeAddrs []string
	// Devices is the number of synthetic devices to register (default 4).
	Devices int
	// Rate is the offered arrival rate per device in tasks per wall-clock
	// second (default 5). The aggregate offered rate is Devices*Rate.
	Rate float64
	// Arrival selects the arrival process: "poisson" (default) or
	// "constant" (evenly spaced).
	Arrival string
	// Duration is the generation horizon in wall time (default 2s). Tasks
	// scheduled inside the horizon are always dispatched; the run then
	// waits for stragglers.
	Duration time.Duration
	// Seed drives arrival spacing and exit sampling. Runs with equal seeds
	// offer byte-identical schedules (see Schedule).
	Seed int64
	// Model is the deployed ME-DNN: D[0] sizes the payload, Sigma samples
	// each task's exit.
	Model offload.ModelParams
	// DeviceFLOPS is the capability each synthetic device registers with;
	// it shapes the KKT share the edge reserves (default 1e9).
	DeviceFLOPS float64
	// Timeout bounds each task RPC; expiries count as deadline sheds
	// rather than errors. Zero means no per-task deadline. The bound is
	// absolute from the task's scheduled arrival: a rerouted retry spends
	// whatever budget remains, it does not restart the clock.
	Timeout time.Duration
	// DeadlineSec gives every task a latency deadline sampled uniformly in
	// [0.75, 1.25] times this base, in seconds from its scheduled arrival.
	// The sampled budget rides the task context to the edge, where deadline
	// admission (runtime.ControlPolicy) can shed doomed work and EDF can
	// order the queue by it. Zero disables per-task deadlines.
	DeadlineSec float64
	// TenantDeadlineSec overrides DeadlineSec per device: device i draws
	// its base from entry i mod len. Heterogeneous deadline classes are
	// what make EDF ordering and targeted degradation observable — with one
	// uniform class, deadline order collapses to arrival order. Empty falls
	// back to DeadlineSec for every device.
	TenantDeadlineSec []float64
	// ForceExit pins every task's exit stage (1, 2 or 3) instead of
	// sampling from the model's exit rates. A homogeneous workload is the
	// clean way to measure capacity scaling: with mixed costs, admission
	// control biases the completed mix toward cheap exits on saturated
	// servers. Zero samples from Sigma (the default).
	ForceExit int
	// IDPrefix namespaces device IDs so repeated runs (sweep points)
	// against one edge do not collide (default "loadgen").
	IDPrefix string
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if len(c.EdgeAddrs) == 0 && c.EdgeAddr != "" {
		c.EdgeAddrs = []string{c.EdgeAddr}
	}
	if c.EdgeAddr == "" && len(c.EdgeAddrs) > 0 {
		c.EdgeAddr = c.EdgeAddrs[0]
	}
	if c.Devices == 0 {
		c.Devices = 4
	}
	if c.Rate == 0 {
		c.Rate = 5
	}
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.DeviceFLOPS == 0 {
		c.DeviceFLOPS = 1e9
	}
	if c.IDPrefix == "" {
		c.IDPrefix = "loadgen"
	}
	return c
}

// validate rejects configurations the harness cannot honour.
func (c Config) validate() error {
	if len(c.EdgeAddrs) == 0 {
		return fmt.Errorf("loadgen: EdgeAddr or EdgeAddrs required")
	}
	for i, addr := range c.EdgeAddrs {
		if addr == "" {
			return fmt.Errorf("loadgen: EdgeAddrs[%d] is empty", i)
		}
	}
	if c.Devices < 1 {
		return fmt.Errorf("loadgen: Devices %d must be positive", c.Devices)
	}
	if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("loadgen: Rate %v must be a positive finite rate", c.Rate)
	}
	if c.Arrival != "poisson" && c.Arrival != "constant" {
		return fmt.Errorf("loadgen: Arrival %q must be poisson or constant", c.Arrival)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration %v must be positive", c.Duration)
	}
	if c.ForceExit < 0 || c.ForceExit > 3 {
		return fmt.Errorf("loadgen: ForceExit %d must be 0 (sample) or an exit stage 1..3", c.ForceExit)
	}
	if c.DeadlineSec < 0 || math.IsNaN(c.DeadlineSec) || math.IsInf(c.DeadlineSec, 0) {
		return fmt.Errorf("loadgen: DeadlineSec %v must be a non-negative finite budget", c.DeadlineSec)
	}
	for i, d := range c.TenantDeadlineSec {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("loadgen: TenantDeadlineSec[%d] %v must be a non-negative finite budget", i, d)
		}
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	return nil
}

// Arrival is one scheduled task: which device offers it, when (offset from
// the run start), and through which exit it will leave the network.
type Arrival struct {
	// At is the scheduled offset from the start of the run.
	At time.Duration
	// Device indexes the synthetic device offering the task.
	Device int
	// Task is the per-device task identifier.
	Task uint64
	// Exit is the pre-sampled exit stage (1, 2 or 3).
	Exit int
	// Deadline is the task's pre-sampled latency budget, measured from At.
	// Zero means the task carries no deadline.
	Deadline time.Duration
}

// Schedule expands the configuration into its full arrival sequence, sorted
// by offset. It is a pure function of the configuration: equal configs
// (including Seed) produce identical schedules, which is what makes load
// runs reproducible — the nondeterminism in a run's *results* is then
// attributable to the system under test, not the harness.
func Schedule(cfg Config) ([]Arrival, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var out []Arrival
	for dev := 0; dev < cfg.Devices; dev++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(dev)*104729))
		gap := 1 / cfg.Rate // mean inter-arrival in seconds
		base := cfg.DeadlineSec
		if len(cfg.TenantDeadlineSec) > 0 {
			base = cfg.TenantDeadlineSec[dev%len(cfg.TenantDeadlineSec)]
		}
		var task uint64
		at := float64(0)
		for {
			if cfg.Arrival == "poisson" {
				at += rng.ExpFloat64() * gap
			} else {
				// Multiply instead of accumulating so float drift cannot
				// leak an extra arrival past the horizon.
				at = gap * float64(task+1)
			}
			if at >= cfg.Duration.Seconds() {
				break
			}
			task++
			exit := cfg.ForceExit
			if exit == 0 {
				exit = sampleExit(rng, cfg.Model)
			}
			var deadline time.Duration
			if base > 0 {
				// ±25% uniform jitter keeps deadline order distinct from
				// arrival order, which is what gives EDF something to sort.
				budget := base * (0.75 + 0.5*rng.Float64())
				deadline = time.Duration(budget * float64(time.Second))
			}
			out = append(out, Arrival{
				At:       time.Duration(at * float64(time.Second)),
				Device:   dev,
				Task:     task,
				Exit:     exit,
				Deadline: deadline,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Device < out[j].Device
	})
	return out, nil
}

// sampleExit draws an exit stage from the model's cumulative exit rates.
func sampleExit(rng *rand.Rand, m offload.ModelParams) int {
	r := rng.Float64()
	switch {
	case r < m.Sigma[0]:
		return 1
	case r < m.Sigma[1]:
		return 2
	default:
		return 3
	}
}
