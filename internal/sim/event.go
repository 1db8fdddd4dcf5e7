package sim

import (
	"fmt"
	"math/rand"

	"leime/internal/cluster"
	"leime/internal/control"
	"leime/internal/metrics"
	"leime/internal/offload"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// EventConfig configures an EventSim run. The fields mirror SlotConfig; the
// event simulator executes every task end-to-end through explicit CPU and
// link stations instead of evaluating the slot-model cost expressions.
type EventConfig struct {
	// Model is the deployed ME-DNN.
	Model offload.ModelParams
	// Devices are the end devices.
	Devices []DeviceSpec
	// EdgeFLOPS and CloudFLOPS are the shared server capabilities.
	EdgeFLOPS  float64
	CloudFLOPS float64
	// EdgeCloud is the edge–cloud path.
	EdgeCloud cluster.Path
	// TauSec is the slot length for decision epochs.
	TauSec float64
	// V is the Lyapunov penalty weight.
	V float64
	// Slots is the generation horizon; the simulation drains afterwards.
	Slots int
	// WarmupSlots excludes early arrivals from statistics.
	WarmupSlots int
	// DeadlineSec, when positive, marks tasks completing later than this
	// many (model) seconds after generation as deadline misses. The paper
	// lists deadline requirements among the wild edge's application
	// characteristics (§II-A); this knob measures them.
	DeadlineSec float64
	// Seed drives arrival sampling, exit sampling and offload coin flips.
	Seed int64
	// EdgePolicy runs every device's edge share under the edge control
	// plane, the same control.Policy the runtime executors read: a backlog
	// budget whose refusals re-run tasks on their device, deadline
	// admission that sheds infeasible work outright, EDF order on the
	// tasks' DeadlineSec deadlines, and a static or adaptive batch window.
	// Degrade is runtime-only and ignored here. The zero value keeps the
	// exact FIFO model.
	EdgePolicy control.Policy
	// Tracer, when non-nil, records one trace per task with the same span
	// taxonomy the testbed emits (task, device.decision, rpc.*, *.queue,
	// *.block*, exit). Sim spans are stamped in model seconds on the
	// engine clock rather than wall time.
	Tracer *telemetry.Tracer
}

// EventResult is the outcome of an EventSim run.
type EventResult struct {
	// TCT summarizes end-to-end completion times of post-warmup tasks.
	TCT metrics.Summary
	// SlotTCT is the mean TCT of tasks generated in each slot.
	SlotTCT metrics.Series
	// PerDeviceTCT summarizes completion times per device (post-warmup).
	PerDeviceTCT []metrics.Summary
	// Ratio is the per-slot mean offloading decision across devices.
	Ratio metrics.Series
	// ExitCounts tallies tasks by the exit they left through.
	ExitCounts [3]int
	// Generated and Completed count tasks; they must match after draining.
	Generated, Completed int
	// DeadlineMisses counts post-warmup tasks exceeding the configured
	// deadline (zero when no deadline is set); shed tasks are included.
	DeadlineMisses int
	// Fallbacks counts tasks the edge refused under the policy's backlog
	// budget that re-ran their remaining blocks on the device — the
	// simulated mirror of runtime.DeviceStats.Fallbacks.
	Fallbacks int
	// Sheds counts tasks deadline admission refused outright. They count
	// toward Completed (conservation) but not ExitCounts: the inference
	// never produced an answer.
	Sheds int
	// Utilization maps each station (per-device CPUs, uplinks, edge shares,
	// the edge-cloud link and the cloud CPU) to the fraction of the
	// generation horizon it spent serving.
	Utilization map[string]float64
}

// RunEvents executes the per-task discrete-event simulation.
func RunEvents(cfg EventConfig) (*EventResult, error) {
	n := len(cfg.Devices)
	if n == 0 {
		return nil, fmt.Errorf("sim: no devices configured")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.EdgeFLOPS <= 0 || cfg.CloudFLOPS <= 0 {
		return nil, fmt.Errorf("sim: edge (%v) and cloud (%v) FLOPS must be positive", cfg.EdgeFLOPS, cfg.CloudFLOPS)
	}
	if cfg.EdgeCloud.BandwidthBps <= 0 {
		return nil, fmt.Errorf("sim: edge-cloud bandwidth %v must be positive", cfg.EdgeCloud.BandwidthBps)
	}
	if cfg.TauSec <= 0 || cfg.V <= 0 {
		return nil, fmt.Errorf("sim: TauSec (%v) and V (%v) must be positive", cfg.TauSec, cfg.V)
	}
	if cfg.Slots <= 0 || cfg.WarmupSlots < 0 || cfg.WarmupSlots >= cfg.Slots {
		return nil, fmt.Errorf("sim: bad horizon (slots=%d, warmup=%d)", cfg.Slots, cfg.WarmupSlots)
	}

	ctrl, err := offload.NewController(offload.Config{Model: cfg.Model, TauSec: cfg.TauSec, V: cfg.V})
	if err != nil {
		return nil, err
	}
	devices := make([]offload.Device, n)
	for i, d := range cfg.Devices {
		if err := d.Device.Validate(); err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
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
			p, err := trace.NewPoisson(d.Device.ArrivalMean, cfg.Seed+int64(i)*104729)
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

	s := &eventState{
		cfg:      cfg,
		ctrl:     ctrl,
		devices:  devices,
		shares:   shares,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		res:      &EventResult{PerDeviceTCT: make([]metrics.Summary, n)},
		devCPU:   make([]*station, n),
		uplink:   make([]*station, n),
		edgeCPU:  make([]*station, n),
		h1:       make([]int, n),
		slotTCT:  make([]float64, cfg.Slots),
		slotDone: make([]int, cfg.Slots),
		slotGen:  make([]int, cfg.Slots),
	}
	for i := range s.devCPU {
		s.devCPU[i] = newStation(fmt.Sprintf("dev%d-cpu", i))
		s.uplink[i] = newStation(fmt.Sprintf("dev%d-uplink", i))
		s.edgeCPU[i] = newStation(fmt.Sprintf("edge-share%d", i))
		s.edgeCPU[i].setPolicy(cfg.EdgePolicy)
	}
	s.cloudLink = newStation("edge-cloud-link")
	s.cloudCPU = newStation("cloud-cpu")

	// Drive slot by slot: generate this slot's tasks, then advance the
	// engine to the slot boundary so queue observations at the next decision
	// epoch reflect completed work.
	for t := 0; t < cfg.Slots; t++ {
		slotStart := float64(t) * cfg.TauSec
		s.eng.RunUntil(slotStart)
		var ratioSum float64
		for i := range devices {
			s.devices[i] = cfg.Devices[i].linkAt(t)
			m := arrivals[i].Next()
			slot := offload.Slot{
				Arrivals:       float64(m),
				State:          offload.State{Q: float64(s.devCPU[i].QueueLen()), H: float64(s.h1[i])},
				EdgeShareFLOPS: shares[i] * cfg.EdgeFLOPS,
			}
			x := policies[i].Decide(ctrl, s.devices[i], slot)
			ratioSum += x
			for j := 0; j < m; j++ {
				s.generate(i, t, slotStart, x)
			}
		}
		s.res.Ratio.Append(ratioSum / float64(n))
	}
	// Drain: every generated task must complete.
	budget := 100 * (s.res.Generated + 1) * 8
	if _, err := s.eng.Run(budget); err != nil {
		return nil, err
	}
	for t := 0; t < cfg.Slots; t++ {
		if s.slotDone[t] > 0 {
			s.res.SlotTCT.Append(s.slotTCT[t] / float64(s.slotDone[t]))
		} else {
			s.res.SlotTCT.Append(0)
		}
	}
	horizon := float64(cfg.Slots) * cfg.TauSec
	s.res.Utilization = make(map[string]float64)
	for _, group := range [][]*station{s.devCPU, s.uplink, s.edgeCPU, {s.cloudLink, s.cloudCPU}} {
		for _, st := range group {
			s.res.Utilization[st.Name()] = st.Utilization(horizon)
		}
	}
	if s.res.Completed != s.res.Generated {
		return nil, fmt.Errorf("sim: conservation violated: generated %d, completed %d", s.res.Generated, s.res.Completed)
	}
	return s.res, nil
}

// eventState is the mutable state of one EventSim run.
type eventState struct {
	cfg     EventConfig
	ctrl    *offload.Controller
	devices []offload.Device
	shares  []float64
	rng     *rand.Rand
	eng     engine
	res     *EventResult

	devCPU  []*station // per-device local CPU
	uplink  []*station // per-device uplink to the edge
	edgeCPU []*station // per-device edge share (Docker-quota equivalent)
	h1      []int      // per-device first-block tasks pending at the edge

	cloudLink *station
	cloudCPU  *station

	slotTCT  []float64
	slotDone []int
	slotGen  []int
}

// sampleExit picks the exit a task will leave through from the sigma vector.
func (s *eventState) sampleExit() int {
	r := s.rng.Float64()
	switch {
	case r < s.cfg.Model.Sigma[0]:
		return 1
	case r < s.cfg.Model.Sigma[1]:
		return 2
	default:
		return 3
	}
}

// generate creates one task on device i in slot t and routes it through the
// pipeline. The offloading coin uses this slot's ratio x.
func (s *eventState) generate(i, t int, at float64, x float64) {
	s.res.Generated++
	s.slotGen[t]++
	exit := s.sampleExit()
	offloaded := s.rng.Float64() < x
	task := &simTask{dev: i, slot: t, born: at, exit: exit}
	if tr := s.cfg.Tracer; tr != nil {
		task.id = uint64(s.res.Generated)
		task.trace = tr.NewID()
		task.root = tr.NewID()
	}
	s.eng.At(at, func() {
		note := "local"
		if offloaded {
			note = "offload"
		}
		s.span(task, task.root, "device.decision", note, at, at)
		if offloaded {
			s.launchEdge(task)
		} else {
			s.launchLocal(task)
		}
	})
}

type simTask struct {
	dev  int
	slot int
	born float64
	exit int
	// fellBack marks a task the edge refused with backpressure that re-ran
	// blocks on its device.
	fellBack bool
	// id/trace/root are the task's span identity; zero when tracing is off.
	id    uint64
	trace uint64
	root  uint64
}

// edgeJob is a submission of dur service seconds to the task's edge
// share: under a configured DeadlineSec it carries the task's absolute
// deadline, which deadline admission and EDF read.
func (s *eventState) edgeJob(task *simTask, dur float64) control.Job {
	j := control.Job{Cost: dur}
	if s.cfg.DeadlineSec > 0 {
		j.Deadline = task.born + s.cfg.DeadlineSec
	}
	return j
}

// span records one finished span on the trace clock (model seconds); no-op
// without a tracer.
func (s *eventState) span(task *simTask, parent uint64, name, note string, start, end float64) {
	tr := s.cfg.Tracer
	if tr == nil || task.trace == 0 {
		return
	}
	tr.Record(telemetry.Span{
		Trace: task.trace, Span: tr.NewID(), Parent: parent,
		Name: name, Device: fmt.Sprintf("dev%d", task.dev), Task: task.id,
		Note: note, Start: start, End: end,
	})
}

// openSpan is a span whose end is not yet known — an RPC hop whose subtree
// is still executing. Children parent to its pre-allocated ID; close records
// it once the subtree finishes.
type openSpan struct {
	id     uint64
	parent uint64
	name   string
	start  float64
}

// ID returns the span's pre-allocated identifier; zero on nil (tracing off).
func (o *openSpan) ID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

func (s *eventState) open(task *simTask, parent uint64, name string) *openSpan {
	tr := s.cfg.Tracer
	if tr == nil || task.trace == 0 {
		return nil
	}
	return &openSpan{id: tr.NewID(), parent: parent, name: name, start: s.eng.Now()}
}

func (s *eventState) close(task *simTask, o *openSpan, end float64) {
	if o == nil {
		return
	}
	tr := s.cfg.Tracer
	tr.Record(telemetry.Span{
		Trace: task.trace, Span: o.id, Parent: o.parent,
		Name: o.name, Device: fmt.Sprintf("dev%d", task.dev), Task: task.id,
		Start: o.start, End: end,
	})
}

// launchLocal runs the first block on the device CPU.
func (s *eventState) launchLocal(task *simTask) {
	i := task.dev
	dur := s.cfg.Model.Mu[0] / s.devices[i].FLOPS
	s.devCPU[i].SubmitObserved(&s.eng, dur, 0, func(enq, start, fin float64) {
		s.span(task, task.root, "device.queue", "", enq, start)
		s.span(task, task.root, "device.block1", "", start, fin)
		if task.exit == 1 {
			s.complete(task, fin)
			return
		}
		// Ship the First-exit intermediate tensor to the edge.
		s.transferToEdge(task, s.cfg.Model.D[1], "rpc.second_block", s.secondBlock)
	})
}

// launchEdge ships the raw input to the edge and runs the first block there
// on the device's edge share. Admission runs where the runtime's does: at
// the edge, after the uplink transfer.
func (s *eventState) launchEdge(task *simTask) {
	i := task.dev
	s.h1[i]++
	s.transferToEdge(task, s.cfg.Model.D[0], "rpc.first_block", func(task *simTask, rpc *openSpan) {
		dur := s.cfg.Model.Mu[0] / (s.shares[i] * s.cfg.EdgeFLOPS)
		v := s.edgeCPU[i].offer(&s.eng, s.edgeJob(task, dur), 0, func(enq, start, fin float64) {
			s.h1[i]--
			s.span(task, rpc.ID(), "edge.queue", "", enq, start)
			s.span(task, rpc.ID(), "edge.block1", "", start, fin)
			if task.exit == 1 {
				s.close(task, rpc, fin)
				s.complete(task, fin)
				return
			}
			s.secondBlock(task, rpc)
		})
		switch {
		case v.Infeasible:
			s.h1[i]--
			s.close(task, rpc, s.eng.Now())
			s.shed(task)
		case v.OverBudget:
			// Backpressure: re-run every block on the device, mirroring
			// the runtime device's degrade-to-local fallback.
			s.h1[i]--
			s.close(task, rpc, s.eng.Now())
			task.fellBack = true
			s.runLocalBlocks(task, 1)
		}
	})
}

// transferToEdge serializes bytes on the device's uplink, then hands the
// task to next after the propagation delay. The named RPC span opens at
// submission and stays open across the remote subtree — next receives it and
// must close it at the subtree's finish time, mirroring how a testbed RPC
// span covers the full round trip.
func (s *eventState) transferToEdge(task *simTask, bytes float64, rpcName string, next func(*simTask, *openSpan)) {
	i := task.dev
	rpc := s.open(task, task.root, rpcName)
	dur := bytes * 8 / s.devices[i].BandwidthBps
	s.uplink[i].Submit(&s.eng, dur, s.devices[i].LatencySec, func(float64) {
		next(task, rpc)
	})
}

// secondBlock runs block 2 on the device's edge share; tasks surviving the
// Second exit continue to the cloud. rpc is the enclosing hop's open span.
// The continuation re-passes admission, exactly as every runtime executor
// submission does: a capacity refusal finishes the remaining blocks on the
// device, a deadline refusal sheds.
func (s *eventState) secondBlock(task *simTask, rpc *openSpan) {
	i := task.dev
	dur := s.cfg.Model.Mu[1] / (s.shares[i] * s.cfg.EdgeFLOPS)
	v := s.edgeCPU[i].offer(&s.eng, s.edgeJob(task, dur), 0, func(enq, start, fin float64) {
		s.span(task, rpc.ID(), "edge.queue", "", enq, start)
		s.span(task, rpc.ID(), "edge.block2", "", start, fin)
		if task.exit == 2 {
			s.close(task, rpc, fin)
			s.complete(task, fin)
			return
		}
		cloudRPC := s.open(task, rpc.ID(), "rpc.cloud")
		linkDur := s.cfg.Model.D[2] * 8 / s.cfg.EdgeCloud.BandwidthBps
		s.cloudLink.Submit(&s.eng, linkDur, s.cfg.EdgeCloud.LatencySec, func(float64) {
			cloudDur := s.cfg.Model.Mu[2] / s.cfg.CloudFLOPS
			s.cloudCPU.SubmitObserved(&s.eng, cloudDur, 0, func(enq, start, fin float64) {
				s.span(task, cloudRPC.ID(), "cloud.queue", "", enq, start)
				s.span(task, cloudRPC.ID(), "cloud.block3", "", start, fin)
				s.close(task, cloudRPC, fin)
				s.close(task, rpc, fin)
				s.complete(task, fin)
			})
		})
	})
	switch {
	case v.Infeasible:
		s.close(task, rpc, s.eng.Now())
		s.shed(task)
	case v.OverBudget:
		s.close(task, rpc, s.eng.Now())
		task.fellBack = true
		s.runLocalBlocks(task, 2)
	}
}

// runLocalBlocks burns blocks first..task.exit on the device CPU — the
// degrade-to-local path after an edge capacity refusal, mirroring the
// runtime device's runLocalBlocks.
func (s *eventState) runLocalBlocks(task *simTask, first int) {
	i := task.dev
	var step func(b int)
	step = func(b int) {
		dur := s.cfg.Model.Mu[b-1] / s.devices[i].FLOPS
		s.devCPU[i].SubmitObserved(&s.eng, dur, 0, func(enq, start, fin float64) {
			s.span(task, task.root, "device.queue", "", enq, start)
			s.span(task, task.root, fmt.Sprintf("device.block%d", b), "", start, fin)
			if b >= task.exit {
				s.complete(task, fin)
				return
			}
			step(b + 1)
		})
	}
	step(first)
}

// shed records a task deadline admission refused outright: it counts toward
// Completed (conservation) and DeadlineMisses, but produced no exit.
func (s *eventState) shed(task *simTask) {
	at := s.eng.Now()
	if tr := s.cfg.Tracer; tr != nil && task.trace != 0 {
		tr.Record(telemetry.Span{
			Trace: task.trace, Span: task.root,
			Name: "task", Device: fmt.Sprintf("dev%d", task.dev), Task: task.id,
			Note: "shed", Start: task.born, End: at,
		})
	}
	s.res.Completed++
	s.res.Sheds++
	if task.slot >= s.cfg.WarmupSlots {
		s.res.DeadlineMisses++
	}
}

// complete records a finished task.
func (s *eventState) complete(task *simTask, at float64) {
	if tr := s.cfg.Tracer; tr != nil && task.trace != 0 {
		dev := fmt.Sprintf("dev%d", task.dev)
		tr.Record(telemetry.Span{
			Trace: task.trace, Span: tr.NewID(), Parent: task.root,
			Name: "exit", Device: dev, Task: task.id, Exit: task.exit,
			Start: at, End: at,
		})
		tr.Record(telemetry.Span{
			Trace: task.trace, Span: task.root,
			Name: "task", Device: dev, Task: task.id, Exit: task.exit,
			Start: task.born, End: at,
		})
	}
	s.res.Completed++
	s.res.ExitCounts[task.exit-1]++
	if task.fellBack {
		s.res.Fallbacks++
	}
	tct := at - task.born
	s.slotTCT[task.slot] += tct
	s.slotDone[task.slot]++
	if task.slot >= s.cfg.WarmupSlots {
		s.res.TCT.Add(tct)
		s.res.PerDeviceTCT[task.dev].Add(tct)
		if s.cfg.DeadlineSec > 0 && tct > s.cfg.DeadlineSec {
			s.res.DeadlineMisses++
		}
	}
}
