// Package policyflag registers the -policy-* flag family — the one CLI
// surface of the edge control plane — and assembles a runtime.ControlPolicy
// from the parsed values. Both testbed CLIs (leime-edge serving a live edge,
// leime-loadgen spinning up in-process fleets) register the identical set,
// so a policy probed under synthetic load is spelled exactly the same when
// deployed.
package policyflag

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"leime/internal/control"
	"leime/internal/runtime"
)

// Values holds the parsed -policy-* flags until Policy assembles them.
type Values struct {
	budget    float64
	deadline  bool
	edf       bool
	windowMax int
	window    float64
	marginal  float64
	adaptive  bool
	p99       float64
	degrade   string
	accuracy  string
}

// Register installs the -policy-* flags on the flag set and returns the
// value holder to read after parsing.
func Register(fs *flag.FlagSet) *Values {
	v := &Values{}
	fs.Float64Var(&v.budget, "policy-budget", 0, "control plane: per-tenant backlog budget in seconds of work; a tenant with share p admits ~budget*p*flops/mu_b block-b tasks (0 = unbounded)")
	fs.BoolVar(&v.deadline, "policy-admit-deadline", false, "control plane: admit a task only if predicted wait+service fits the deadline riding its RPC; doomed tasks are refused at the door")
	fs.BoolVar(&v.edf, "policy-edf", false, "control plane: order executor queues earliest-deadline-first (default: exact FIFO)")
	fs.IntVar(&v.windowMax, "policy-window-max", 0, "batch window: max same-block executions coalesced into one amortized burn (<=1 = batching off; with -policy-adaptive, 0 = default 8)")
	fs.Float64Var(&v.window, "policy-window", 0, "batch window: max seconds the edge holds a task waiting for co-arriving work (0 = batching off; with -policy-adaptive, 0 = default 0.05)")
	fs.Float64Var(&v.marginal, "policy-marginal", 0, "batch window: cost of each extra batched task as a fraction of the first (0 = default 0.25)")
	fs.BoolVar(&v.adaptive, "policy-adaptive", false, "control plane: widen/shrink the batch window from observed arrival rate and p99 instead of holding it static")
	fs.Float64Var(&v.p99, "policy-p99", 0, "control plane: adaptive window latency objective in model seconds; observed p99 beyond it backs the window off (0 = no guard)")
	fs.StringVar(&v.degrade, "policy-degrade", "off", "overload degradation: off, targeted (accuracy-maximizing planner) or blind (every tenant capped to exit 2)")
	fs.StringVar(&v.accuracy, "policy-accuracy", "", "per-exit accuracy profile for the degradation planner as three comma-separated fractions, e.g. 0.80,0.89,0.94 (empty = calibrated default)")
	return v
}

// Policy assembles the control policy, rejecting malformed enum or profile
// spellings.
func (v *Values) Policy() (runtime.ControlPolicy, error) {
	pol := runtime.ControlPolicy{
		MaxBacklogSec:     v.budget,
		DeadlineAdmission: v.deadline,
		EDF:               v.edf,
		Batch:             control.Batch{MaxSize: v.windowMax, MaxDelaySec: v.window, Marginal: v.marginal},
		AdaptiveBatch:     v.adaptive,
		TargetP99Sec:      v.p99,
	}
	switch v.degrade {
	case "", "off":
	case "targeted":
		pol.Degrade.Enabled = true
	case "blind":
		pol.Degrade.Enabled = true
		pol.Degrade.Blind = true
	default:
		return pol, fmt.Errorf("-policy-degrade %q: want off, targeted or blind", v.degrade)
	}
	if v.accuracy != "" {
		acc, err := parseAccuracy(v.accuracy)
		if err != nil {
			return pol, err
		}
		pol.Degrade.Accuracy = acc
	}
	return pol, nil
}

// parseAccuracy parses the -policy-accuracy triple.
func parseAccuracy(s string) ([3]float64, error) {
	var acc [3]float64
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return acc, fmt.Errorf("-policy-accuracy %q: want three comma-separated fractions", s)
	}
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f <= 0 || f > 1 {
			return acc, fmt.Errorf("-policy-accuracy %q: entry %d must be a fraction in (0, 1]", s, i+1)
		}
		acc[i] = f
	}
	return acc, nil
}
