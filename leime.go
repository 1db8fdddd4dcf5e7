// Package leime is a from-scratch reproduction of "Enabling Low Latency Edge
// Intelligence based on Multi-exit DNNs in the Wild" (ICDCS 2021): the LEIME
// system for low-latency DNN inference across a device–edge–cloud hierarchy.
//
// LEIME has two components, both implemented here:
//
//   - Exit setting (model level): given a chain DNN profile, pick the First,
//     Second and Third exits minimizing expected task completion time for a
//     concrete environment, with the paper's branch-and-bound solver.
//
//   - Online distributed offloading (computation level): per time slot, each
//     device picks the fraction of its tasks to launch on the edge, using a
//     Lyapunov drift-plus-penalty controller with a decentralized
//     cost-balancing solution and KKT edge-resource allocation.
//
// The package is a facade over the substrates in internal/: analytic DNN
// profiles, a calibrated exit-confidence model (the trained-network
// stand-in), two simulators (the paper's slot model and a per-task
// discrete-event pipeline), and a real-TCP testbed runtime with netem-style
// link shaping.
//
// # Quick start
//
//	sys, err := leime.Build(leime.Options{
//		Arch: "inception-v3",
//		Env:  leime.TestbedEnv(leime.RaspberryPi3B),
//	})
//	if err != nil { ... }
//	e1, e2, e3 := sys.Exits()        // the optimal exit setting
//	res, err := sys.SimulateTasks(leime.SimOptions{Devices: 1, ArrivalRate: 10, Slots: 200})
package leime

import (
	"fmt"
	"math"

	"leime/internal/cluster"
	"leime/internal/confidence"
	"leime/internal/control"
	"leime/internal/dataset"
	"leime/internal/exitsetting"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/sim"
)

// Re-exported environment types.
type (
	// Env describes the wild-edge environment: device/edge/cloud
	// capabilities and the two network paths.
	Env = cluster.Env
	// Path is a network link (bandwidth, propagation latency).
	Path = cluster.Path
	// Node is a compute node with a FLOPS rating.
	Node = cluster.Node
	// ModelParams is the deployed ME-DNN as the offloading layer sees it.
	ModelParams = offload.ModelParams
	// Policy is a per-slot offloading rule.
	Policy = offload.Policy
	// Strategy is an exit-setting scheme.
	Strategy = exitsetting.Strategy
	// RetryPolicy caps how the testbed devices re-send idempotent requests
	// after transport failures (see TestbedOptions.Retry).
	RetryPolicy = rpc.RetryPolicy
	// BreakerConfig tunes the testbed devices' per-edge circuit breaker
	// (see TestbedOptions.Breaker).
	BreakerConfig = rpc.BreakerConfig
)

// Paper-calibrated hardware presets.
var (
	// RaspberryPi3B is the paper's weak end device.
	RaspberryPi3B = cluster.RaspberryPi3B
	// JetsonNano is the paper's strong end device (8.2x the Pi).
	JetsonNano = cluster.JetsonNano
	// EdgeDesktop is the i7-3770 edge server.
	EdgeDesktop = cluster.EdgeDesktop
	// CloudV100 is the V100-class cloud.
	CloudV100 = cluster.CloudV100
)

// TestbedEnv returns the paper's testbed environment for an end device.
func TestbedEnv(device Node) Env { return cluster.TestbedEnv(device) }

// Mbps converts megabits per second to bits per second.
func Mbps(v float64) float64 { return cluster.Mbps(v) }

// Architectures lists the supported DNN profiles, in the paper's evaluation
// order.
func Architectures() []string {
	out := make([]string, 0, 4)
	for _, p := range model.All() {
		out = append(out, p.Name)
	}
	return out
}

// Sentinels that make the literal zero settings requestable. A zero field
// in Options, SimOptions or TestbedOptions means "use the documented
// default", which would otherwise leave the actual zero values unreachable;
// spell those with the explicit sentinels instead.
const (
	// SeedZero requests the literal random seed 0. Seed: 0 selects the
	// default seed (1), not seed 0.
	SeedZero int64 = math.MinInt64
	// EasyFractionZero requests a calibration workload with no easy samples
	// at all. EasyFraction: 0 keeps the CIFAR-10-like default mixture.
	EasyFractionZero float64 = -1
)

// Options configure Build.
type Options struct {
	// Arch is one of Architectures() (e.g. "inception-v3").
	Arch string
	// Env is the target environment.
	Env Env
	// DatasetSize is the calibration-set size; 0 defaults to 1000.
	DatasetSize int
	// EasyFraction sets the workload complexity (the exit-rate knob of the
	// paper's Fig. 3(b)); 0 keeps the CIFAR-10-like default share of easy
	// samples (0.55). Use EasyFractionZero for a workload with none.
	EasyFraction float64
	// AccuracyLossBudget bounds per-exit accuracy loss during threshold
	// calibration; 0 uses the architecture's paper-calibrated default.
	AccuracyLossBudget float64
	// Seed makes calibration deterministic; 0 defaults to 1. Use SeedZero
	// for the literal seed 0.
	Seed int64
}

// withDefaults resolves zero fields to their documented defaults and the
// explicit sentinels to the literal values they stand for. Arch must already
// be validated: the loss-budget default is per architecture.
func (o Options) withDefaults() Options {
	if o.DatasetSize == 0 {
		o.DatasetSize = 1000
	}
	switch o.Seed {
	case 0:
		o.Seed = 1
	case SeedZero:
		o.Seed = 0
	}
	switch o.EasyFraction {
	case 0:
		o.EasyFraction = dataset.CIFAR10Like.EasyFrac
	case EasyFractionZero:
		o.EasyFraction = 0
	}
	if o.AccuracyLossBudget == 0 {
		o.AccuracyLossBudget = confidence.DefaultLossBudget(o.Arch)
	}
	return o
}

// System is a built LEIME deployment: the profile, the calibrated exit
// behaviour, the optimal exit setting and the resulting partition.
type System struct {
	profile *model.Profile
	conf    *confidence.Model
	thresh  confidence.Thresholds
	sigma   []float64
	setting exitsetting.Setting
	mednn   *model.MEDNN
	env     Env
}

// Build constructs a LEIME system: it generates a calibration workload,
// calibrates per-exit confidence thresholds, derives exit rates, solves P0
// with the branch-and-bound algorithm, and partitions the ME-DNN.
func Build(opts Options) (*System, error) {
	p, err := model.ByName(opts.Arch)
	if err != nil {
		return nil, err
	}
	if err := opts.Env.Validate(); err != nil {
		return nil, fmt.Errorf("leime: %w", err)
	}
	opts = opts.withDefaults()
	mix := dataset.CIFAR10Like.WithEasyFrac(opts.EasyFraction)
	ds, err := dataset.Generate(mix, opts.DatasetSize, opts.Seed)
	if err != nil {
		return nil, err
	}
	conf, err := confidence.New(p, confidence.DefaultParams(p.Name), opts.Seed)
	if err != nil {
		return nil, err
	}
	thresh, sigma := conf.Calibrate(ds, opts.AccuracyLossBudget)

	in, err := exitsetting.NewInstance(p, sigma, opts.Env)
	if err != nil {
		return nil, err
	}
	setting := in.Solve()
	if setting.E1 < 1 {
		return nil, fmt.Errorf("leime: no feasible exit setting for %s", p.Name)
	}
	mednn, err := model.NewMEDNN(p, setting.E1, setting.E2, sigma)
	if err != nil {
		return nil, err
	}
	return &System{
		profile: p,
		conf:    conf,
		thresh:  thresh,
		sigma:   sigma,
		setting: setting,
		mednn:   mednn,
		env:     opts.Env,
	}, nil
}

// Arch returns the architecture name.
func (s *System) Arch() string { return s.profile.Name }

// Exits returns the chosen (First, Second, Third) exits, 1-based.
func (s *System) Exits() (e1, e2, e3 int) {
	return s.setting.E1, s.setting.E2, s.setting.E3
}

// ExpectedTCT returns the expected per-task completion time T(E) of the
// chosen setting under the build environment, in seconds (no queueing).
func (s *System) ExpectedTCT() float64 { return s.setting.Cost }

// Sigma returns the calibrated cumulative exit-rate vector over all
// candidate exits. The returned slice is a copy.
func (s *System) Sigma() []float64 {
	out := make([]float64, len(s.sigma))
	copy(out, s.sigma)
	return out
}

// Params returns the deployed ME-DNN parameters the offloading layer and the
// simulators consume.
func (s *System) Params() ModelParams {
	return ModelParams{
		Mu:    s.mednn.BlockFLOPs(),
		D:     s.mednn.DataBytes(),
		Sigma: s.mednn.Sigma,
	}
}

// MEDNN returns the deployed multi-exit network in full per-layer detail
// (block FLOPs, activation sizes, cumulative exit rates). The partition
// solver consumes it to price chain cuts; the returned value is shared, so
// callers must treat it as read-only.
func (s *System) MEDNN() *model.MEDNN { return s.mednn }

// Env returns the environment the system was built for.
func (s *System) Env() Env { return s.env }

// StrategyCost is one exit-setting scheme's expected completion time under
// the system's environment and workload.
type StrategyCost struct {
	// Name is the scheme name.
	Name string
	// E1, E2 are the exits it picks.
	E1, E2 int
	// TCT is the expected per-task completion time in seconds.
	TCT float64
}

// CompareStrategies evaluates LEIME against every baseline exit-setting
// scheme under the system's environment, in the paper's presentation order.
func (s *System) CompareStrategies() ([]StrategyCost, error) {
	in, err := exitsetting.NewInstance(s.profile, s.sigma, s.env)
	if err != nil {
		return nil, err
	}
	all := append([]exitsetting.Strategy{exitsetting.LEIME()}, exitsetting.Baselines()...)
	out := make([]StrategyCost, 0, len(all))
	for _, st := range all {
		got, err := exitsetting.EvalStrategy(in, st)
		if err != nil {
			return nil, err
		}
		out = append(out, StrategyCost{Name: st.Name, E1: got.E1, E2: got.E2, TCT: got.Cost})
	}
	return out, nil
}

// JointPlan is the outcome of co-optimizing exits and offloading ratio.
type JointPlan struct {
	// E1, E2, E3 are the jointly optimal exits.
	E1, E2, E3 int
	// Ratio is the jointly optimal steady-state offloading ratio.
	Ratio float64
	// TCT is the expected per-task completion time at the joint optimum.
	TCT float64
	// SequentialTCT is the expected completion time of the paper's
	// sequential pipeline (P0 first, then the best ratio for those exits)
	// under the same cost model; it upper-bounds TCT.
	SequentialTCT float64
}

// SolveJoint co-optimizes the exit setting and the steady-state offloading
// ratio — the ext-joint extension beyond the paper's sequential pipeline.
// See EXPERIMENTS.md for when it helps (up to 22% in high-offloading
// regimes).
func (s *System) SolveJoint() (JointPlan, error) {
	in, err := exitsetting.NewInstance(s.profile, s.sigma, s.env)
	if err != nil {
		return JointPlan{}, err
	}
	joint := in.SolveJoint()
	seq := in.SolveSequential()
	return JointPlan{
		E1: joint.E1, E2: joint.E2, E3: joint.E3,
		Ratio:         joint.Ratio,
		TCT:           joint.Cost,
		SequentialTCT: seq.Cost,
	}, nil
}

// SweepPoint is one point of a sensitivity sweep: the swept value's label
// and the optimal exits there.
type SweepPoint struct {
	// Label names the swept value (e.g. "8Mbps").
	Label string
	// E1, E2 are the optimal exits at this point.
	E1, E2 int
	// TCT is the expected completion time of the optimum, in seconds.
	TCT float64
}

// SweepBandwidth re-solves the exit setting across device–edge bandwidths
// (in Mbps), holding everything else fixed — the programmatic form of the
// paper's Fig. 2 sensitivity study.
func (s *System) SweepBandwidth(mbps []float64) ([]SweepPoint, error) {
	pts, err := exitsetting.BandwidthSweep(s.profile, s.sigma, s.env, mbps)
	if err != nil {
		return nil, err
	}
	return toSweepPoints(pts), nil
}

// SweepEdgeLoad re-solves the exit setting across edge shares in (0, 1].
func (s *System) SweepEdgeLoad(shares []float64) ([]SweepPoint, error) {
	pts, err := exitsetting.EdgeLoadSweep(s.profile, s.sigma, s.env, shares)
	if err != nil {
		return nil, err
	}
	return toSweepPoints(pts), nil
}

func toSweepPoints(pts []exitsetting.SweepPoint) []SweepPoint {
	out := make([]SweepPoint, 0, len(pts))
	for _, pt := range pts {
		out = append(out, SweepPoint{Label: pt.Label, E1: pt.Setting.E1, E2: pt.Setting.E2, TCT: pt.Setting.Cost})
	}
	return out
}

// The edge control plane, re-exported as the facade's policy surface. One
// PolicyOptions value drives both substrates — the testbed executors
// (TestbedOptions.EdgePolicy) and the event simulator's edge shares
// (SimOptions.EdgePolicy) — so a simulated capacity estimate and a testbed
// measurement describe the same policy. The zero value is the pinned
// degenerate case: unbounded exact-FIFO queues, no batching, no admission,
// no degradation.
type (
	// PolicyOptions is the edge control policy: backlog budget, deadline
	// admission, EDF queue ordering and static or adaptive batching, run
	// alike by the testbed and the simulator, plus overload degradation,
	// which only the testbed runs.
	PolicyOptions = runtime.ControlPolicy
	// BatchConfig configures the batch window inside PolicyOptions.
	BatchConfig = control.Batch
	// DegradeOptions configures overload degradation inside PolicyOptions.
	DegradeOptions = runtime.DegradePolicy
)

// SimOptions configure the built-in simulations.
type SimOptions struct {
	// Devices is the number of (homogeneous) end devices; 0 defaults to 1.
	Devices int
	// DeviceFLOPS overrides the per-device capability; 0 uses the build
	// environment's device rating.
	DeviceFLOPS float64
	// ArrivalRate is the mean tasks per slot per device; 0 defaults to 5.
	ArrivalRate float64
	// Policy overrides the offloading policy (nil = LEIME's Lyapunov rule).
	Policy *Policy
	// Slots is the horizon; 0 defaults to 300.
	Slots int
	// Seed drives stochastic arrivals; 0 defaults to 1. Use SeedZero for
	// the literal seed 0.
	Seed int64
	// EdgePolicy is the control policy on the simulated edge shares, run
	// by the same control.Queue as the testbed's executors. Only
	// SimulateTasks honours it — the slot model has no per-task service to
	// control. Degradation is runtime-only and ignored here.
	EdgePolicy PolicyOptions
}

// withDefaults resolves zero fields to their documented defaults (the
// device rating comes from the build environment) and SeedZero to the
// literal seed 0.
func (o SimOptions) withDefaults(env Env) SimOptions {
	if o.Devices == 0 {
		o.Devices = 1
	}
	if o.DeviceFLOPS == 0 {
		o.DeviceFLOPS = env.DeviceFLOPS
	}
	if o.ArrivalRate == 0 {
		o.ArrivalRate = 5
	}
	if o.Slots == 0 {
		o.Slots = 300
	}
	switch o.Seed {
	case 0:
		o.Seed = 1
	case SeedZero:
		o.Seed = 0
	}
	return o
}

func (s *System) deviceSpecs(opts SimOptions) []sim.DeviceSpec {
	devs := make([]sim.DeviceSpec, opts.Devices)
	for i := range devs {
		devs[i] = sim.DeviceSpec{
			Device: offload.Device{
				FLOPS:        opts.DeviceFLOPS,
				BandwidthBps: s.env.DeviceEdge.BandwidthBps,
				LatencySec:   s.env.DeviceEdge.LatencySec,
				ArrivalMean:  opts.ArrivalRate,
			},
			Policy: opts.Policy,
		}
	}
	return devs
}

// SimulateSlots runs the paper's time-slotted system model with the built
// ME-DNN and returns per-slot and aggregate completion-time statistics.
func (s *System) SimulateSlots(opts SimOptions) (*sim.SlotResult, error) {
	opts = opts.withDefaults(s.env)
	return sim.RunSlots(sim.SlotConfig{
		Model:       s.Params(),
		Devices:     s.deviceSpecs(opts),
		EdgeFLOPS:   s.env.EdgeFLOPS,
		CloudFLOPS:  s.env.CloudFLOPS,
		EdgeCloud:   s.env.EdgeCloud,
		TauSec:      1,
		V:           1e4,
		Slots:       opts.Slots,
		WarmupSlots: opts.Slots / 10,
		Seed:        opts.Seed,
	})
}

// SimulateTasks runs the per-task discrete-event pipeline simulation with
// the built ME-DNN.
func (s *System) SimulateTasks(opts SimOptions) (*sim.EventResult, error) {
	opts = opts.withDefaults(s.env)
	return sim.RunEvents(sim.EventConfig{
		Model:       s.Params(),
		Devices:     s.deviceSpecs(opts),
		EdgeFLOPS:   s.env.EdgeFLOPS,
		CloudFLOPS:  s.env.CloudFLOPS,
		EdgeCloud:   s.env.EdgeCloud,
		TauSec:      1,
		V:           1e4,
		Slots:       opts.Slots,
		WarmupSlots: opts.Slots / 10,
		Seed:        opts.Seed,
		EdgePolicy:  opts.EdgePolicy,
	})
}

// Offloading policies, re-exported for SimOptions.Policy and the testbed.
var (
	// Lyapunov is LEIME's online offloading policy.
	Lyapunov = offload.Lyapunov
	// DeviceOnly launches everything locally.
	DeviceOnly = offload.DeviceOnly
	// EdgeOnly launches everything at the edge.
	EdgeOnly = offload.EdgeOnly
	// CapabilityBased splits by the static capability ratio.
	CapabilityBased = offload.CapabilityBased
	// FixedRatio offloads a constant fraction.
	FixedRatio = offload.FixedRatio
)
