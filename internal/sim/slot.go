// Package sim provides the simulators the experiments run on:
//
//   - RunSlots implements exactly the paper's time-slotted system model
//     (§III-D): per-slot arrivals, the queue recurrences of eqs. 10–11, the
//     cost terms of eqs. 12–14, and pluggable offloading policies. It is the
//     substrate for the offloading experiments (Figs. 3, 9, 10(b), 11).
//
//   - RunEvents is a discrete-event, per-task simulator of the full
//     device–edge–cloud pipeline (CPU queues, serialized network links,
//     propagation delays, early exits). It is the testbed stand-in for the
//     end-to-end latency experiments (Figs. 2, 7, 8, 10(a)).
//
//   - RunPipeline drives a partitioned model chain over stage workers, the
//     model-clock twin of the pipelined runtime.
//
// The last two share one private event engine and single-server station,
// which drives the same control.Queue as runtime.Executor: admission, EDF
// and batching are one implementation on both clocks.
package sim

import (
	"fmt"

	"leime/internal/cluster"
	"leime/internal/metrics"
	"leime/internal/offload"
	"leime/internal/trace"
)

// LinkSchedule returns the device–edge link conditions in effect during the
// given slot. It models the "wild" time-varying networks of the paper's
// motivation: WiFi bandwidth and latency that churn while the system runs.
type LinkSchedule func(slot int) (bandwidthBps, latencySec float64)

// DeviceSpec configures one end device in a simulation.
type DeviceSpec struct {
	// Device carries capability, uplink and expected arrival rate.
	Device offload.Device
	// Arrivals yields per-slot task counts. If nil, a Poisson process with
	// the device's ArrivalMean is used.
	Arrivals trace.Process
	// Policy decides the per-slot offloading ratio. If nil, LEIME's
	// Lyapunov policy is used.
	Policy *offload.Policy
	// Link, when non-nil, overrides the device's uplink per slot (bandwidth
	// churn experiments). The controller observes the overridden values, so
	// online policies adapt to them.
	Link LinkSchedule
}

// linkAt returns the device configuration with the slot's link conditions
// applied.
func (d DeviceSpec) linkAt(slot int) offload.Device {
	dev := d.Device
	if d.Link != nil {
		bw, lat := d.Link(slot)
		if bw > 0 {
			dev.BandwidthBps = bw
		}
		if lat >= 0 {
			dev.LatencySec = lat
		}
	}
	return dev
}

// SlotConfig configures a SlotSim run.
type SlotConfig struct {
	// Model is the deployed ME-DNN.
	Model offload.ModelParams
	// Devices are the end devices.
	Devices []DeviceSpec
	// EdgeFLOPS and CloudFLOPS are the shared server capabilities.
	EdgeFLOPS  float64
	CloudFLOPS float64
	// EdgeCloud is the edge–cloud path.
	EdgeCloud cluster.Path
	// TauSec is the slot length (seconds).
	TauSec float64
	// V is the Lyapunov penalty weight.
	V float64
	// Slots is the horizon.
	Slots int
	// WarmupSlots are excluded from the summary statistics.
	WarmupSlots int
	// Seed drives default arrival processes.
	Seed int64
}

// Validate reports whether the configuration is runnable.
func (c SlotConfig) Validate() error {
	if len(c.Devices) == 0 {
		return fmt.Errorf("sim: no devices configured")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	for i, d := range c.Devices {
		if err := d.Device.Validate(); err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
	}
	if c.EdgeFLOPS <= 0 || c.CloudFLOPS <= 0 {
		return fmt.Errorf("sim: edge (%v) and cloud (%v) FLOPS must be positive", c.EdgeFLOPS, c.CloudFLOPS)
	}
	if err := c.EdgeCloud.Validate(); err != nil {
		return fmt.Errorf("edge-cloud: %w", err)
	}
	if c.TauSec <= 0 || c.V <= 0 {
		return fmt.Errorf("sim: TauSec (%v) and V (%v) must be positive", c.TauSec, c.V)
	}
	if c.Slots <= 0 || c.WarmupSlots < 0 || c.WarmupSlots >= c.Slots {
		return fmt.Errorf("sim: bad horizon (slots=%d, warmup=%d)", c.Slots, c.WarmupSlots)
	}
	return nil
}

// DeviceResult holds per-device outcomes of a slot simulation.
type DeviceResult struct {
	// TCT summarizes the per-task completion time of post-warmup slots.
	TCT metrics.Summary
	// SlotTCT is the per-slot mean task completion time (full horizon).
	SlotTCT metrics.Series
	// Ratio is the per-slot offloading decision.
	Ratio metrics.Series
	// Backlog is the per-slot total queue length Q_i + H_i.
	Backlog metrics.Series
	// Arrivals is the total tasks generated.
	Arrivals float64
}

// SlotResult is the outcome of a SlotSim run.
type SlotResult struct {
	// PerDevice holds one entry per configured device.
	PerDevice []DeviceResult
	// MeanTCT is the demand-weighted mean task completion time across all
	// devices, post-warmup, in seconds.
	MeanTCT float64
	// FinalBacklog is the total queue length at the horizon.
	FinalBacklog float64
}

// RunSlots executes the paper's time-slotted model and returns per-device
// and aggregate statistics.
func RunSlots(cfg SlotConfig) (*SlotResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Devices)
	ctrl, err := offload.NewController(offload.Config{Model: cfg.Model, TauSec: cfg.TauSec, V: cfg.V})
	if err != nil {
		return nil, err
	}
	devices := make([]offload.Device, n)
	for i, d := range cfg.Devices {
		devices[i] = d.Device
	}
	shares, err := offload.Allocate(devices, cfg.EdgeFLOPS)
	if err != nil {
		return nil, err
	}

	arrivals := make([]trace.Process, n)
	policies := make([]offload.Policy, n)
	for i, d := range cfg.Devices {
		arrivals[i] = d.Arrivals
		if arrivals[i] == nil {
			p, err := trace.NewPoisson(d.Device.ArrivalMean, cfg.Seed+int64(i)*7919)
			if err != nil {
				return nil, err
			}
			arrivals[i] = p
		}
		if d.Policy != nil {
			policies[i] = *d.Policy
		} else {
			policies[i] = offload.Lyapunov()
		}
	}

	res := &SlotResult{PerDevice: make([]DeviceResult, n)}
	states := make([]offload.State, n)
	var tctSum, tctTasks float64
	for t := 0; t < cfg.Slots; t++ {
		for i := range cfg.Devices {
			dev := cfg.Devices[i].linkAt(t)
			m := float64(arrivals[i].Next())
			slot := offload.Slot{
				Arrivals:       m,
				State:          states[i],
				EdgeShareFLOPS: shares[i] * cfg.EdgeFLOPS,
			}
			x := policies[i].Decide(ctrl, dev, slot)
			costs := ctrl.Eval(dev, slot, x)
			perTask := 0.0
			if m > 0 {
				perTask = (costs.TD+costs.TE)/m + tailCost(cfg, ctrl, shares[i], x)
			}
			dr := &res.PerDevice[i]
			dr.Arrivals += m
			dr.SlotTCT.Append(perTask)
			dr.Ratio.Append(x)
			dr.Backlog.Append(states[i].Q + states[i].H)
			if t >= cfg.WarmupSlots && m > 0 {
				dr.TCT.Add(perTask)
				tctSum += perTask * m
				tctTasks += m
			}
			states[i] = ctrl.StepQueues(dev, slot, x)
		}
	}
	for i := range states {
		res.FinalBacklog += states[i].Q + states[i].H
	}
	if tctTasks > 0 {
		res.MeanTCT = tctSum / tctTasks
	}
	return res, nil
}

// tailCost is the expected per-task time spent beyond the first block: the
// second block on the edge for tasks surviving the First exit, and the
// edge–cloud transfer plus third block for tasks surviving the Second exit.
// The slot model's eqs. 12–14 only cover first-block work (the second and
// third blocks are "processed fixedly on edge and cloud", §III-D1), so the
// end-to-end TCT adds this fixed expectation.
func tailCost(cfg SlotConfig, ctrl *offload.Controller, share, x float64) float64 {
	m := cfg.Model
	shareFLOPS := share * cfg.EdgeFLOPS
	// Split the device's edge share between first- and second-block work
	// (eq. 9); what the first block does not use serves the second block.
	denom := x*m.Mu[0] + (1-m.Sigma[0])*m.Mu[1]
	fe2 := shareFLOPS
	if denom > 0 {
		fe2 = shareFLOPS * (1 - m.Sigma[0]) * m.Mu[1] / denom
	}
	var tail float64
	if fe2 > 0 {
		tail += (1 - m.Sigma[0]) * m.Mu[1] / fe2
	}
	tail += (1 - m.Sigma[1]) * (m.Mu[2]/cfg.CloudFLOPS + cfg.EdgeCloud.TransferSeconds(m.D[2]))
	return tail
}
