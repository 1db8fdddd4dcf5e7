// Package partition computes min-latency chain cuts of a profiled DNN
// across an ordered set of workers — the arbitrary-layer generalization of
// the paper's exit-boundary split. The paper deploys block 1 on the device
// and everything else on one edge, so a model that exceeds any single
// node's budget is unservable; joint-partitioning work (Ye et al.,
// arXiv:2310.12937) and collaborative inference with early exits (Xie et
// al., arXiv:2412.08284) instead cut the layer chain wherever the
// compute/transfer trade-off is best. The per-layer profiles this
// reproduction already carries (mu_l FLOPs and d_l intermediate-tensor
// bytes, with O(1) prefix sums) are exactly the partitioner's input.
//
// The solver is a dynamic program over cut points. Early exits make the
// objective probabilistic, but separable: whether a task is still running
// at layer l depends only on the exit indices, never on where the chain is
// cut, so the expected end-to-end latency of a cut decomposes into
// survivor-weighted prefix sums and the DP stays O(workers * m^2). The
// same weights price each hop: a task crossing the cut after layer k does
// so with probability survivor(k+1), carrying d_k bytes.
package partition

import (
	"errors"
	"fmt"
	"math"

	"leime/internal/model"
)

// ErrInfeasible reports that no cut satisfies the constraints: a per-worker
// CapFLOPs that no assignment fits, or an arrival rate that saturates every
// possible bottleneck stage.
var ErrInfeasible = errors.New("partition: no feasible cut")

// maxRho is the utilization ceiling for the queueing term: a stage pushed
// past it is treated as saturated (infeasible) rather than letting the
// M/M/1 wait blow up to a numerically meaningless value.
const maxRho = 0.999

// Worker is one node of the execution chain, in forwarding order.
type Worker struct {
	// FLOPS is the node's compute rate (operations per second).
	FLOPS float64
	// CapFLOPs, when positive, bounds the per-task operation count the
	// node can host (backbone plus exit classifiers of its layer range) —
	// the memory/model-size proxy that makes "model too big for any one
	// node" expressible. Zero means unlimited.
	CapFLOPs float64
}

// Hop is one network link of the chain. Hops[0] is the ingress link from
// the task source (the device) to Workers[0]; Hops[j] connects
// Workers[j-1] to Workers[j].
type Hop struct {
	// BandwidthBps is the link bandwidth in bits per second; zero or
	// negative means infinitely fast serialization.
	BandwidthBps float64
	// LatencySec is the one-way propagation delay in seconds.
	LatencySec float64
}

// delaySec returns the time the hop needs to move one activation of the
// given byte size: serialization plus propagation.
func (h Hop) delaySec(bytes float64) float64 {
	d := h.LatencySec
	if h.BandwidthBps > 0 && bytes > 0 {
		d += bytes * 8 / h.BandwidthBps
	}
	return d
}

// Chain is an ordered set of workers and the links between them.
type Chain struct {
	Workers []Worker
	// Hops has one entry per worker: the link *into* it.
	Hops []Hop
}

// validate reports whether the chain is well-formed.
func (c Chain) validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("partition: chain has no workers")
	}
	if len(c.Hops) != len(c.Workers) {
		return fmt.Errorf("partition: %d workers need %d hops (one into each), got %d",
			len(c.Workers), len(c.Workers), len(c.Hops))
	}
	for i, w := range c.Workers {
		if w.FLOPS <= 0 {
			return fmt.Errorf("partition: worker %d FLOPS %v must be positive", i, w.FLOPS)
		}
		if w.CapFLOPs < 0 {
			return fmt.Errorf("partition: worker %d CapFLOPs %v must be non-negative", i, w.CapFLOPs)
		}
	}
	for i, h := range c.Hops {
		if h.BandwidthBps < 0 || h.LatencySec < 0 {
			return fmt.Errorf("partition: hop %d has negative bandwidth or latency", i)
		}
	}
	return nil
}

// Config is one partitioning problem.
type Config struct {
	// Net is the multi-exit network to cut: its profile supplies mu_l and
	// d_l, its exit indices and Sigma supply the survivor weights.
	Net *model.MEDNN
	// Chain is the ordered worker/link topology.
	Chain Chain
	// ArrivalRate, when positive, is the sustained task arrival rate
	// (tasks per second) the chain must carry. The solver then adds an
	// M/M/1-style expected queueing delay per stage and rejects cuts that
	// saturate a stage — this is what makes it prefer balanced cuts under
	// load over dumping every layer on the first worker. Zero optimizes
	// pure single-task latency. Links carry no queueing term: the
	// activation tensors are small next to the compute times, and the sim
	// model (which does queue links) is the cross-check.
	ArrivalRate float64
}

// Stage is one worker's share of a plan: the half-open layer range
// (Lo, Hi] it executes, with everything the runtime needs to install it.
type Stage struct {
	// Worker indexes Config.Chain.Workers.
	Worker int
	// Lo, Hi are 1-based cut points: the stage executes layers Lo+1..Hi.
	// Lo == Hi is a pass-through stage (transfer priced, zero compute).
	Lo, Hi int
	// FLOPs[c] is the operation count a task of exit class c+1 burns at
	// this stage: its backbone layers within the range plus every exit
	// classifier it passes or stops at there.
	FLOPs [3]float64
	// Hosted[c] reports that exit class c+1 completes at this stage (its
	// exit head lies within the range).
	Hosted [3]bool
	// Deepest is the deepest exit class (1..3) whose head lies at or
	// before Hi, or 0 if none: the best answer this stage can return if
	// the next hop is unreachable.
	Deepest int
	// InBytes and OutBytes are the activation sizes entering and leaving
	// the stage (d_Lo and d_Hi).
	InBytes, OutBytes float64
	// ServiceSec is the stage's expected service time per *original* task
	// (survivor-weighted); its reciprocal bounds the chain's sustainable
	// throughput.
	ServiceSec float64
	// WaitSec is the expected queueing delay per task arriving at this
	// stage under Config.ArrivalRate (zero when ArrivalRate is zero).
	WaitSec float64
	// Rho is the stage utilization under Config.ArrivalRate.
	Rho float64
}

// Plan is a solved (or evaluated) cut.
type Plan struct {
	// Cuts[j] is stage j's Hi; the last entry is always m. len(Cuts) may
	// be shorter than the chain when trailing workers would sit idle.
	Cuts []int
	// Stages carries one entry per used worker, in chain order.
	Stages []Stage
	// ExpectedLatencySec is the expected end-to-end task latency: ingress
	// hop, per-stage waits and compute, and inter-stage transfers, each
	// weighted by the probability the task reaches them.
	ExpectedLatencySec float64
	// ClassLatencySec[c] is the end-to-end latency of a task that exits
	// through class c+1.
	ClassLatencySec [3]float64
	// BottleneckSec is the largest per-stage expected service time per
	// original task; SustainableRate is its reciprocal — the arrival rate
	// beyond which the chain cannot be stable.
	BottleneckSec   float64
	SustainableRate float64
}

// weights holds the survivor-weighted and raw prefix tables for one net.
type weights struct {
	m    int
	surv []float64 // surv[k]: P(task crosses cut k), k in 0..m
	w    []float64 // w[i]: expected FLOPs of layers+classifiers up to i
	raw  []float64 // raw[i]: worst-case FLOPs up to i (capacity accounting)
	prob [3]float64
}

func buildWeights(n *model.MEDNN) weights {
	p := n.Profile
	m := p.NumExits()
	exits := [3]int{n.E1, n.E2, n.E3}
	sigma := n.Sigma
	ws := weights{
		m:    m,
		surv: make([]float64, m+1),
		w:    make([]float64, m+1),
		raw:  make([]float64, m+1),
		prob: [3]float64{sigma[0], sigma[1] - sigma[0], 1 - sigma[1]},
	}
	for k := 0; k <= m; k++ {
		s := 1.0
		for e, le := range exits {
			if le <= k {
				s = 1 - sigma[e]
			}
		}
		ws.surv[k] = s
	}
	for i := 1; i <= m; i++ {
		ws.w[i] = ws.w[i-1] + ws.surv[i-1]*p.LayerFLOPs(i)
		ws.raw[i] = ws.raw[i-1] + p.LayerFLOPs(i)
		for _, le := range exits {
			if le == i {
				// Every task reaching an exit head runs its classifier:
				// that is how confidence is measured before continuing.
				ws.w[i] += ws.surv[i-1] * p.ExitClassifierFLOPs(i)
				ws.raw[i] += p.ExitClassifierFLOPs(i)
			}
		}
	}
	return ws
}

// stageCost returns the expected latency contribution (per original task)
// of running layers (lo, hi] on worker j: survivor-weighted compute plus,
// under load, the queueing wait. Infeasible assignments return +Inf.
func (ws weights) stageCost(cfg Config, j, lo, hi int) float64 {
	wk := cfg.Chain.Workers[j]
	if wk.CapFLOPs > 0 && ws.raw[hi]-ws.raw[lo] > wk.CapFLOPs {
		return math.Inf(1)
	}
	work := ws.w[hi] - ws.w[lo]
	if work == 0 {
		return 0
	}
	svc := work / wk.FLOPS
	if cfg.ArrivalRate <= 0 {
		return svc
	}
	rho := cfg.ArrivalRate * svc
	if rho >= maxRho {
		return math.Inf(1)
	}
	// M/M/1 sojourn decomposition: per *arriving* task the mean service is
	// svc/surv[lo] and the expected wait is rho/(1-rho) of it; weighting
	// back by the arrival probability keeps the sum per original task.
	return svc + rho/(1-rho)*svc
}

// Solve computes the minimum-expected-latency cut of cfg.Net across
// cfg.Chain. Trailing workers that would receive no layers are trimmed
// from the returned plan.
func Solve(cfg Config) (*Plan, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	ws := buildWeights(cfg.Net)
	m, nw := ws.m, len(cfg.Chain.Workers)
	p := cfg.Net.Profile

	const unset = -1
	dp := make([][]float64, nw)
	from := make([][]int, nw)
	for j := range dp {
		dp[j] = make([]float64, m+1)
		from[j] = make([]int, m+1)
		for i := range dp[j] {
			dp[j][i] = math.Inf(1)
			from[j][i] = unset
		}
	}
	for i := 0; i <= m; i++ {
		ingress := cfg.Chain.Hops[0].delaySec(p.DataBytes(0)) // every task crosses
		if c := ws.stageCost(cfg, 0, 0, i); !math.IsInf(c, 1) {
			dp[0][i] = ingress + c
		}
	}
	for j := 1; j < nw; j++ {
		for i := 0; i <= m; i++ {
			for k := 0; k <= i; k++ {
				prev := dp[j-1][k]
				if math.IsInf(prev, 1) {
					continue
				}
				hop := ws.surv[k] * cfg.Chain.Hops[j].delaySec(p.DataBytes(k))
				c := ws.stageCost(cfg, j, k, i)
				if math.IsInf(c, 1) {
					continue
				}
				if total := prev + hop + c; total < dp[j][i] {
					dp[j][i] = total
					from[j][i] = k
				}
			}
		}
	}

	// The cheapest full assignment may use fewer workers than the chain
	// offers: a shorter prefix of workers avoids hop costs entirely, and
	// dp[j][m] with trailing pass-through stages only ever adds cost.
	bestJ, best := unset, math.Inf(1)
	for j := 0; j < nw; j++ {
		if dp[j][m] < best {
			best = dp[j][m]
			bestJ = j
		}
	}
	if bestJ == unset {
		return nil, fmt.Errorf("%w: every assignment violates a worker cap or saturates a stage (rate %.3g/s)",
			ErrInfeasible, cfg.ArrivalRate)
	}
	cuts := make([]int, bestJ+1)
	cuts[bestJ] = m
	for j := bestJ; j > 0; j-- {
		cuts[j-1] = from[j][cuts[j]]
	}
	plan, err := Evaluate(cfg, cuts)
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// SingleWorker evaluates the degenerate one-stage plan — every layer on
// the first worker of the chain — the paper-style single-edge offload
// baseline the pipelined plan is compared against.
func SingleWorker(cfg Config) (*Plan, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	cfg.Chain = Chain{Workers: cfg.Chain.Workers[:1], Hops: cfg.Chain.Hops[:1]}
	return Evaluate(cfg, []int{cfg.Net.Profile.NumExits()})
}

// Evaluate prices an explicit cut: cuts[j] is the Hi of stage j on worker
// j, ascending, ending at m. It returns the same Plan a Solve of that cut
// would, which is what the differential tests pin the sim and runtime
// against.
func Evaluate(cfg Config, cuts []int) (*Plan, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	ws := buildWeights(cfg.Net)
	p := cfg.Net.Profile
	m := ws.m
	if len(cuts) == 0 || len(cuts) > len(cfg.Chain.Workers) {
		return nil, fmt.Errorf("partition: %d cuts for %d workers", len(cuts), len(cfg.Chain.Workers))
	}
	if cuts[len(cuts)-1] != m {
		return nil, fmt.Errorf("partition: last cut %d must be m=%d", cuts[len(cuts)-1], m)
	}
	lo := 0
	for j, hi := range cuts {
		if hi < lo || hi > m {
			return nil, fmt.Errorf("partition: cut %d of stage %d out of order", hi, j)
		}
		lo = hi
	}

	exits := [3]int{cfg.Net.E1, cfg.Net.E2, cfg.Net.E3}
	plan := &Plan{Cuts: append([]int(nil), cuts...)}
	lo = 0
	for j, hi := range cuts {
		cost := ws.stageCost(cfg, j, lo, hi)
		if math.IsInf(cost, 1) {
			return nil, fmt.Errorf("%w: stage %d (layers %d..%d) violates worker %d's cap or saturates it",
				ErrInfeasible, j, lo+1, hi, j)
		}
		st := Stage{
			Worker:     j,
			Lo:         lo,
			Hi:         hi,
			InBytes:    p.DataBytes(lo),
			OutBytes:   p.DataBytes(hi),
			ServiceSec: (ws.w[hi] - ws.w[lo]) / cfg.Chain.Workers[j].FLOPS,
		}
		if cfg.ArrivalRate > 0 {
			st.Rho = cfg.ArrivalRate * st.ServiceSec
			if ws.surv[lo] > 0 && st.Rho > 0 {
				// Wait per arriving task: rho/(1-rho) times the mean
				// service per arrival (ServiceSec / surv[lo]).
				st.WaitSec = st.Rho / (1 - st.Rho) * st.ServiceSec / ws.surv[lo]
			}
		}
		for c := 0; c < 3; c++ {
			end := exits[c]
			if end > hi {
				end = hi
			}
			if end > lo {
				st.FLOPs[c] = p.RangeFLOPs(lo, end)
				for e := 0; e <= c; e++ {
					if le := exits[e]; lo < le && le <= end {
						st.FLOPs[c] += p.ExitClassifierFLOPs(le)
					}
				}
			}
			st.Hosted[c] = lo < exits[c] && exits[c] <= hi
		}
		for c := 0; c < 3; c++ {
			if exits[c] <= hi {
				st.Deepest = c + 1
			}
		}
		if st.ServiceSec > plan.BottleneckSec {
			plan.BottleneckSec = st.ServiceSec
		}
		plan.Stages = append(plan.Stages, st)
		lo = hi
	}
	if plan.BottleneckSec > 0 {
		plan.SustainableRate = 1 / plan.BottleneckSec
	}

	// Per-class walk: a class-c task crosses the ingress, then each stage's
	// wait and its own compute share, hopping onward until its exit is
	// hosted. Summing p_c * T_c reproduces the DP objective exactly (the
	// survivor-weighted form is its rearrangement).
	for c := 0; c < 3; c++ {
		t := cfg.Chain.Hops[0].delaySec(p.DataBytes(0))
		for j, st := range plan.Stages {
			if j > 0 {
				t += cfg.Chain.Hops[j].delaySec(st.InBytes)
			}
			t += st.WaitSec + st.FLOPs[c]/cfg.Chain.Workers[st.Worker].FLOPS
			if st.Hosted[c] {
				break
			}
		}
		plan.ClassLatencySec[c] = t
		plan.ExpectedLatencySec += ws.prob[c] * t
	}
	return plan, nil
}

func validate(cfg Config) error {
	if cfg.Net == nil || cfg.Net.Profile == nil {
		return fmt.Errorf("partition: nil network")
	}
	if err := cfg.Chain.validate(); err != nil {
		return err
	}
	if cfg.ArrivalRate < 0 {
		return fmt.Errorf("partition: arrival rate %v must be non-negative", cfg.ArrivalRate)
	}
	return nil
}
