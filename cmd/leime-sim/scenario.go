package main

import (
	"encoding/json"
	"fmt"
	"io"

	"leime"
	"leime/internal/metrics"
	"leime/internal/offload"
	"leime/internal/sim"
	"leime/internal/trace"
)

// deviceSpec describes one device of the fleet.
type deviceSpec struct {
	// Count instantiates this spec multiple times (default 1).
	Count int `json:"count,omitempty"`
	// Hardware is a preset name (pi, nano) or empty when FLOPS is given.
	Hardware string `json:"hardware,omitempty"`
	// FLOPS overrides the hardware preset.
	FLOPS float64 `json:"flops,omitempty"`
	// BandwidthMbps is the uplink bandwidth (default 10).
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
	// LatencyMs is the uplink propagation latency (default 20).
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// Rate is the mean task arrivals per slot (default 5).
	Rate float64 `json:"rate,omitempty"`
	// Arrivals selects the process: poisson (default), constant, bursty,
	// diurnal, or replay (requires Trace).
	Arrivals string `json:"arrivals,omitempty"`
	// Trace is the per-slot arrival counts replayed when Arrivals is
	// "replay"; record one with trace.Record for seed-independent,
	// cross-machine-reproducible workloads.
	Trace []int `json:"trace,omitempty"`
	// Policy selects offloading: leime (default), leime-centralized,
	// device-only, edge-only, cap, or fixed:<ratio>.
	Policy string `json:"policy,omitempty"`
}

// scenario is a complete experiment description.
type scenario struct {
	// Name labels the run.
	Name string `json:"name"`
	// Arch is the DNN profile (default inception-v3).
	Arch string `json:"arch,omitempty"`
	// EdgeShare scales the edge capability in (0, 1] (default 1).
	EdgeShare float64 `json:"edge_share,omitempty"`
	// Devices is the fleet (at least one spec).
	Devices []deviceSpec `json:"devices"`
	// Slots is the horizon (default 300).
	Slots int `json:"slots,omitempty"`
	// Simulator selects "slot" (default) or "event".
	Simulator string `json:"simulator,omitempty"`
	// DeadlineSec, when positive, reports the fraction of tasks missing the
	// latency budget (event simulator only).
	DeadlineSec float64 `json:"deadline_s,omitempty"`
	// Seed fixes the randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// load parses a scenario from JSON.
func load(r io.Reader) (*scenario, error) {
	var s scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate applies defaults and reports configuration errors.
func (s *scenario) validate() error {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.Arch == "" {
		s.Arch = "inception-v3"
	}
	if s.EdgeShare == 0 {
		s.EdgeShare = 1
	}
	if s.EdgeShare < 0 || s.EdgeShare > 1 {
		return fmt.Errorf("scenario: edge_share %v out of (0, 1]", s.EdgeShare)
	}
	if len(s.Devices) == 0 {
		return fmt.Errorf("scenario: at least one device spec required")
	}
	if s.Slots == 0 {
		s.Slots = 300
	}
	if s.Slots < 10 {
		return fmt.Errorf("scenario: slots %d too short (need >= 10)", s.Slots)
	}
	switch s.Simulator {
	case "":
		s.Simulator = "slot"
	case "slot", "event":
	default:
		return fmt.Errorf("scenario: unknown simulator %q (want slot or event)", s.Simulator)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DeadlineSec < 0 {
		return fmt.Errorf("scenario: deadline_s %v must be non-negative", s.DeadlineSec)
	}
	if s.DeadlineSec > 0 && s.Simulator != "event" {
		return fmt.Errorf("scenario: deadline_s requires the event simulator")
	}
	for i := range s.Devices {
		if err := s.Devices[i].validate(); err != nil {
			return fmt.Errorf("scenario: device %d: %w", i, err)
		}
	}
	return nil
}

func (d *deviceSpec) validate() error {
	if d.Count == 0 {
		d.Count = 1
	}
	if d.Count < 0 {
		return fmt.Errorf("count %d must be positive", d.Count)
	}
	if d.FLOPS == 0 {
		switch d.Hardware {
		case "", "pi":
			d.FLOPS = leime.RaspberryPi3B.FLOPS
		case "nano":
			d.FLOPS = leime.JetsonNano.FLOPS
		default:
			return fmt.Errorf("unknown hardware %q (want pi or nano)", d.Hardware)
		}
	}
	if d.FLOPS < 0 {
		return fmt.Errorf("flops %v must be positive", d.FLOPS)
	}
	if d.BandwidthMbps == 0 {
		d.BandwidthMbps = 10
	}
	if d.LatencyMs == 0 {
		d.LatencyMs = 20
	}
	if d.BandwidthMbps < 0 || d.LatencyMs < 0 {
		return fmt.Errorf("bandwidth (%v) and latency (%v) must be positive", d.BandwidthMbps, d.LatencyMs)
	}
	if d.Rate == 0 {
		d.Rate = 5
	}
	if d.Rate < 0 {
		return fmt.Errorf("rate %v must be positive", d.Rate)
	}
	switch d.Arrivals {
	case "":
		d.Arrivals = "poisson"
	case "poisson", "constant", "bursty", "diurnal":
	case "replay":
		if _, err := trace.NewRecorded(d.Trace); err != nil {
			return fmt.Errorf("replay arrivals: %w", err)
		}
	default:
		return fmt.Errorf("unknown arrivals %q (want poisson, constant, bursty, diurnal or replay)", d.Arrivals)
	}
	if d.Policy == "" {
		d.Policy = "leime"
	}
	if _, err := offload.ParsePolicy(d.Policy); err != nil {
		return err
	}
	return nil
}

// result is the outcome of running a scenario.
type result struct {
	// Scenario names the run.
	Scenario string
	// MeanTCT is the demand-weighted mean completion time in seconds.
	MeanTCT float64
	// P99TCT is the 99th percentile (event simulator only; 0 otherwise).
	P99TCT float64
	// Devices is the instantiated fleet size.
	Devices int
	// Tasks is the number of tasks generated (event simulator) or expected
	// (slot model).
	Tasks float64
	// MeanRatio is the mean offloading decision across devices and slots.
	MeanRatio float64
	// FinalBacklog is the residual queue length (slot model only).
	FinalBacklog float64
	// TCT carries the full completion-time distribution (event simulator
	// only; nil otherwise).
	TCT *metrics.Summary
	// DeadlineMissRate is the fraction of tasks exceeding the configured
	// deadline (event simulator with deadline_s set; 0 otherwise).
	DeadlineMissRate float64
}

// run builds the LEIME system for the scenario and executes it.
func (s *scenario) run() (*result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	env := leime.TestbedEnv(leime.RaspberryPi3B).WithEdgeLoad(s.EdgeShare)
	sys, err := leime.Build(leime.Options{Arch: s.Arch, Env: env, Seed: s.Seed})
	if err != nil {
		return nil, err
	}

	var specs []sim.DeviceSpec
	for i := range s.Devices {
		d := &s.Devices[i]
		pol, err := offload.ParsePolicy(d.Policy)
		if err != nil {
			return nil, err
		}
		for c := 0; c < d.Count; c++ {
			idx := len(specs)
			var arr trace.Process
			switch d.Arrivals {
			case "constant":
				arr = &trace.Constant{PerSlot: int(d.Rate + 0.5)}
			case "bursty":
				b, err := trace.NewBursty(d.Rate/2, d.Rate*3, 0.05, 0.2, s.Seed+int64(idx)*31)
				if err != nil {
					return nil, err
				}
				arr = b
			case "diurnal":
				dr, err := trace.NewDiurnal(d.Rate, 0.7, 100, s.Seed+int64(idx)*31)
				if err != nil {
					return nil, err
				}
				arr = dr
			case "replay":
				rec, err := trace.NewRecorded(d.Trace)
				if err != nil {
					return nil, err
				}
				arr = rec
			default:
				p, err := trace.NewPoisson(d.Rate, s.Seed+int64(idx)*31)
				if err != nil {
					return nil, err
				}
				arr = p
			}
			polCopy := pol
			specs = append(specs, sim.DeviceSpec{
				Device: offload.Device{
					FLOPS:        d.FLOPS,
					BandwidthBps: leime.Mbps(d.BandwidthMbps),
					LatencySec:   d.LatencyMs / 1000,
					ArrivalMean:  d.Rate,
				},
				Arrivals: arr,
				Policy:   &polCopy,
			})
		}
	}

	out := &result{Scenario: s.Name, Devices: len(specs)}
	switch s.Simulator {
	case "event":
		res, err := sim.RunEvents(sim.EventConfig{
			Model:       sys.Params(),
			Devices:     specs,
			EdgeFLOPS:   env.EdgeFLOPS,
			CloudFLOPS:  env.CloudFLOPS,
			EdgeCloud:   env.EdgeCloud,
			TauSec:      1,
			V:           1e4,
			Slots:       s.Slots,
			WarmupSlots: s.Slots / 10,
			DeadlineSec: s.DeadlineSec,
			Seed:        s.Seed,
		})
		if err != nil {
			return nil, err
		}
		if s.DeadlineSec > 0 && res.TCT.Count() > 0 {
			out.DeadlineMissRate = float64(res.DeadlineMisses) / float64(res.TCT.Count())
		}
		out.MeanTCT = res.TCT.Mean()
		out.P99TCT = res.TCT.Percentile(99)
		out.Tasks = float64(res.Completed)
		out.MeanRatio = res.Ratio.Mean()
		out.TCT = &res.TCT
	default:
		res, err := sim.RunSlots(sim.SlotConfig{
			Model:       sys.Params(),
			Devices:     specs,
			EdgeFLOPS:   env.EdgeFLOPS,
			CloudFLOPS:  env.CloudFLOPS,
			EdgeCloud:   env.EdgeCloud,
			TauSec:      1,
			V:           1e4,
			Slots:       s.Slots,
			WarmupSlots: s.Slots / 10,
			Seed:        s.Seed,
		})
		if err != nil {
			return nil, err
		}
		out.MeanTCT = res.MeanTCT
		out.FinalBacklog = res.FinalBacklog
		var ratio float64
		for _, d := range res.PerDevice {
			ratio += d.Ratio.Mean()
			out.Tasks += d.Arrivals
		}
		out.MeanRatio = ratio / float64(len(res.PerDevice))
	}
	return out, nil
}
