package offload

import (
	"fmt"
	"strconv"
	"strings"
)

// Policy is a named per-slot offloading rule: given the device, its slot
// observation and the controller's cost model, it returns the offloading
// ratio x in [0, 1]. The classical baselines of the paper's Fig. 10(b) are
// all expressible as policies.
type Policy struct {
	// Name is the policy name as used in the paper's figures.
	Name string
	// Decide returns the offloading ratio for this slot.
	Decide func(c *Controller, dev Device, slot Slot) float64
}

// Lyapunov returns LEIME's online policy: the decentralized drift-plus-
// penalty balance decision.
func Lyapunov() Policy {
	return Policy{
		Name:   "LEIME",
		Decide: func(c *Controller, dev Device, slot Slot) float64 { return c.Decide(dev, slot) },
	}
}

// LyapunovCentralized returns the exact per-slot P1' optimizer (golden-
// section search) as a policy. It is the upper bound the decentralized
// balance rule is compared against in the solver ablation; production
// deployments use Lyapunov.
func LyapunovCentralized() Policy {
	return Policy{
		Name:   "LEIME-centralized",
		Decide: func(c *Controller, dev Device, slot Slot) float64 { return c.decideCentralized(dev, slot) },
	}
}

// DeviceOnly returns the D-only baseline: every task launches locally
// (offloading ratio 0).
func DeviceOnly() Policy {
	return Policy{
		Name:   "D-only",
		Decide: func(*Controller, Device, Slot) float64 { return 0 },
	}
}

// EdgeOnly returns the E-only baseline: every task launches at the edge
// (offloading ratio 1), still respecting the uplink bandwidth cap.
func EdgeOnly() Policy {
	return Policy{
		Name: "E-only",
		Decide: func(c *Controller, dev Device, slot Slot) float64 {
			return c.bandwidthCap(dev, slot.Arrivals)
		},
	}
}

// CapabilityBased returns the cap_based baseline: the ratio is fixed from
// the static capability split between the device and its edge share,
// x = p_i F^e / (F_i^d + p_i F^e), ignoring queues and network state.
func CapabilityBased() Policy {
	return Policy{
		Name: "cap_based",
		Decide: func(c *Controller, dev Device, slot Slot) float64 {
			total := dev.FLOPS + slot.EdgeShareFLOPS
			if total <= 0 {
				return 0
			}
			x := slot.EdgeShareFLOPS / total
			if cap := c.bandwidthCap(dev, slot.Arrivals); x > cap {
				x = cap
			}
			return x
		},
	}
}

// FixedRatio returns a constant-ratio policy (the offloading-ratio sweeps of
// Fig. 3 use these).
func FixedRatio(x float64) Policy {
	return Policy{
		Name: fmt.Sprintf("fixed-%.2f", x),
		Decide: func(*Controller, Device, Slot) float64 {
			return clamp01(x)
		},
	}
}

// ClassicBaselines returns the offloading baselines of Fig. 10(b).
func ClassicBaselines() []Policy {
	return []Policy{DeviceOnly(), EdgeOnly(), CapabilityBased()}
}

// ParsePolicy resolves a policy by its command-line name: leime,
// leime-centralized, device-only, edge-only, cap, or fixed:<ratio> with the
// ratio a number in [0, 1].
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "leime":
		return Lyapunov(), nil
	case "leime-centralized":
		return LyapunovCentralized(), nil
	case "device-only":
		return DeviceOnly(), nil
	case "edge-only":
		return EdgeOnly(), nil
	case "cap":
		return CapabilityBased(), nil
	}
	if s, ok := strings.CutPrefix(name, "fixed:"); ok {
		ratio, err := strconv.ParseFloat(s, 64)
		if err != nil || !(0 <= ratio && ratio <= 1) {
			return Policy{}, fmt.Errorf("fixed ratio %q is not a number in [0, 1]", s)
		}
		return FixedRatio(ratio), nil
	}
	return Policy{}, fmt.Errorf("unknown policy %q (want leime, leime-centralized, device-only, edge-only, cap or fixed:<ratio>)", name)
}
