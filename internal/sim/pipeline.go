package sim

import (
	"fmt"
	"math/rand"

	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/partition"
)

// Pipelined-inference twin: the discrete-event model of a partitioned
// chain. Stage compute is a single-server FIFO station per worker; hops
// are link stations whose service is the activation's serialization time
// with propagation as trailing delay. With an idle chain this reproduces
// the analytic per-class latency of internal/partition exactly — the
// differential pin between solver and simulator — and under load it
// exposes the queueing the solver only approximates with its M/M/1 term.

// PipeArrival is one explicitly scheduled task.
type PipeArrival struct {
	// AtSec is the arrival time on the simulation clock.
	AtSec float64
	// Class is the task's predetermined exit class (1..3).
	Class int
}

// PipelineConfig configures a pipelined-chain simulation.
type PipelineConfig struct {
	// Net is the profiled multi-exit network.
	Net *model.MEDNN
	// Chain is the worker chain (as handed to the partition solver).
	Chain partition.Chain
	// Cuts is the chain cut to simulate — normally Plan.Cuts from a
	// partition solve; it is re-evaluated here so the stage metadata is
	// consistent by construction.
	Cuts []int
	// Arrivals, when non-empty, schedules tasks verbatim (the differential
	// pin uses one idle task per class). When empty, tasks are generated
	// by a Poisson process of the given Rate over HorizonSec.
	Arrivals []PipeArrival
	// Rate is the generated arrival rate (tasks per second).
	Rate float64
	// HorizonSec is the generation horizon; the chain drains afterwards.
	HorizonSec float64
	// Seed drives arrival and exit-class sampling.
	Seed int64
	// KillStage, when positive, fail-stops that stage (index >= 1; killing
	// the entry stage is the device's problem, not the chain's) at
	// KillAtSec: tasks needing to cross into it from then on are answered
	// from the upstream stage's deepest hosted exit, and work already
	// queued there drains but its results are lost.
	KillStage int
	// KillAtSec is when the kill happens.
	KillAtSec float64
}

// validate reports whether the configuration is runnable.
func (c PipelineConfig) validate() error {
	if c.Net == nil {
		return fmt.Errorf("sim: pipeline needs a profiled network")
	}
	if len(c.Arrivals) == 0 {
		if c.Rate <= 0 || c.HorizonSec <= 0 {
			return fmt.Errorf("sim: pipeline needs explicit arrivals or a positive Rate (%v) and HorizonSec (%v)", c.Rate, c.HorizonSec)
		}
	}
	for i, a := range c.Arrivals {
		if a.AtSec < 0 || a.Class < 1 || a.Class > 3 {
			return fmt.Errorf("sim: arrival %d (t=%v class=%d) is malformed", i, a.AtSec, a.Class)
		}
	}
	if c.KillStage < 0 || (c.KillStage > 0 && c.KillAtSec < 0) {
		return fmt.Errorf("sim: bad kill (stage=%d at=%v)", c.KillStage, c.KillAtSec)
	}
	return nil
}

// PipelineResult is the outcome of a pipelined-chain simulation.
type PipelineResult struct {
	// Plan is the evaluated cut the simulation executed.
	Plan *partition.Plan
	// TCT summarizes end-to-end completion times over every finished task.
	TCT metrics.Summary
	// ClassTCT summarizes completion times by requested exit class.
	ClassTCT [3]metrics.Summary
	// ExitCounts tallies tasks by the exit they actually left through.
	ExitCounts [3]int
	// Degraded counts tasks answered from a shallower exit because their
	// next stage was dead.
	Degraded int
	// Lost counts tasks that were queued at or beyond the killed stage when
	// it died — accepted work whose result never came back.
	Lost int
	// Generated and Completed count tasks; Completed + Lost == Generated
	// after draining.
	Generated, Completed int
	// StageUtilization is each stage CPU's busy fraction of the horizon.
	StageUtilization []float64
}

// RunPipeline executes the pipelined-chain simulation.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan, err := partition.Evaluate(partition.Config{Net: cfg.Net, Chain: cfg.Chain}, cfg.Cuts)
	if err != nil {
		return nil, err
	}
	if cfg.KillStage >= len(plan.Stages) {
		return nil, fmt.Errorf("sim: kill stage %d out of range [1,%d)", cfg.KillStage, len(plan.Stages))
	}

	eng := &engine{}
	cpus := make([]*station, len(plan.Stages))
	links := make([]*station, len(plan.Stages))
	for j := range plan.Stages {
		cpus[j] = newStation(fmt.Sprintf("stage%d.cpu", j))
		links[j] = newStation(fmt.Sprintf("stage%d.link", j))
	}
	dead := make([]bool, len(plan.Stages))
	if cfg.KillStage > 0 {
		eng.At(cfg.KillAtSec, func() { dead[cfg.KillStage] = true })
	}

	res := &PipelineResult{Plan: plan}
	finish := func(born float64, class, exit int) {
		t := eng.Now() - born
		res.Completed++
		res.ExitCounts[exit-1]++
		res.TCT.Add(t)
		res.ClassTCT[class-1].Add(t)
		if exit < class {
			res.Degraded++
		}
	}

	// enterStage runs one task's share of stage j and routes the survivor:
	// answer at a hosted exit, degrade when the next stage is dead, or
	// serialize the next activation onto the hop. The mutual recursion with
	// the link submission mirrors the runtime's relay chain.
	var enterStage func(j int, born float64, class int)
	forward := func(j int, born float64, class int) {
		st := plan.Stages[j]
		if st.Hosted[class-1] {
			finish(born, class, class)
			return
		}
		if dead[j+1] {
			if st.Deepest > 0 {
				finish(born, class, st.Deepest)
			} else {
				res.Lost++
			}
			return
		}
		next := plan.Stages[j+1]
		hop := cfg.Chain.Hops[j+1]
		links[j+1].Submit(eng, serializeSec(hop, next.InBytes), hop.LatencySec, func(float64) {
			enterStage(j+1, born, class)
		})
	}
	enterStage = func(j int, born float64, class int) {
		if dead[j] {
			// The stage died while the activation was in flight (or queued
			// behind it): the work is gone.
			res.Lost++
			return
		}
		st := plan.Stages[j]
		cpus[j].Submit(eng, st.FLOPs[class-1]/cfg.Chain.Workers[st.Worker].FLOPS, 0, func(float64) {
			forward(j, born, class)
		})
	}

	admit := func(at float64, class int) {
		res.Generated++
		hop := cfg.Chain.Hops[0]
		eng.At(at, func() {
			links[0].Submit(eng, serializeSec(hop, cfg.Net.Profile.DataBytes(0)), hop.LatencySec, func(float64) {
				enterStage(0, at, class)
			})
		})
	}

	if len(cfg.Arrivals) > 0 {
		for _, a := range cfg.Arrivals {
			admit(a.AtSec, a.Class)
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for at := rng.ExpFloat64() / cfg.Rate; at < cfg.HorizonSec; at += rng.ExpFloat64() / cfg.Rate {
			admit(at, sampleClass(rng, cfg.Net.Sigma))
		}
	}

	// Every task schedules a bounded number of events (one per hop and
	// stage); the budget only guards against regressions in the model.
	maxEvents := 16 * (res.Generated + 2) * (len(plan.Stages) + 1)
	if _, err := eng.Run(maxEvents); err != nil {
		return nil, err
	}
	horizon := eng.Now()
	res.StageUtilization = make([]float64, len(cpus))
	for j, s := range cpus {
		res.StageUtilization[j] = s.Utilization(horizon)
	}
	if res.Completed+res.Lost != res.Generated {
		return nil, fmt.Errorf("sim: task conservation violated: %d generated, %d completed, %d lost",
			res.Generated, res.Completed, res.Lost)
	}
	return res, nil
}

// serializeSec is the link-occupying part of a hop crossing; propagation
// rides as trailing delay so back-to-back activations pipeline on the wire
// exactly as partition's Hop.delaySec prices a lone one.
func serializeSec(h partition.Hop, bytes float64) float64 {
	if h.BandwidthBps <= 0 || bytes <= 0 {
		return 0
	}
	return bytes * 8 / h.BandwidthBps
}

// sampleClass draws an exit class from the cumulative exit profile.
func sampleClass(rng *rand.Rand, sigma [3]float64) int {
	r := rng.Float64()
	switch {
	case r < sigma[0]:
		return 1
	case r < sigma[1]:
		return 2
	default:
		return 3
	}
}
