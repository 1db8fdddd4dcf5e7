package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leime/internal/loadgen"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/telemetry"
)

// warmup is discarded at the start of every measurement: connections,
// buffer pools, the executor's shards and the Go scheduler reach steady
// state before the first counted task.
const warmup = time.Second

// outcome is how one task ended, from the client's side.
type outcome uint8

const (
	// good: a correct reply within the task's latency limit.
	good outcome = iota
	// late: a correct reply after the limit.
	late
	// rejected: refused by admission control (ErrBusy, ErrOverloaded).
	rejected
	// shed: refused or abandoned because its deadline could not be met.
	shed
	// errored: transport or server fault, or a reply that fails the
	// correctness check (wrong TaskID, wrong exit).
	errored
)

// classify maps a call error to an outcome. ErrDeadlineInfeasible unwraps to
// ErrOverloaded as well, so it is tested first: a doomed task is a shed.
func classify(err error) outcome {
	switch {
	case err == nil:
		return good
	case errors.Is(err, runtime.ErrDeadlineInfeasible):
		return shed
	case errors.Is(err, runtime.ErrBusy), errors.Is(err, runtime.ErrOverloaded):
		return rejected
	case errors.Is(err, rpc.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return shed
	default:
		return errored
	}
}

// taskRecord is how one task went.
type taskRecord struct {
	latency time.Duration
	sched   int8 // scheduled exit
	served  int8 // exit the reply named; 0 when there was no reply
	outcome outcome
}

// system is a built topology as the load loops see it: how to run one task
// through it and how to tear it down.
type system struct {
	// issue runs one task to completion. meta carries the task's trace
	// context and deadline; the zero value is untraced and unbounded.
	issue func(ctx context.Context, a loadgen.Arrival, meta rpc.Meta) (runtime.TaskResp, error)
	// close stops every tier and connection of the topology.
	close func()
	// rpcSpan names the benchmark's span around issue.
	rpcSpan string
	// degrading reports that the system may answer from a shallower exit
	// than scheduled (served <= scheduled passes); otherwise served must
	// equal scheduled.
	degrading bool
	// shares maps tenant ids to the edge FLOPS reserved for them, the
	// denominator of the requested service time.
	shares map[string]float64
}

// loadSpec is what the two load loops share.
type loadSpec struct {
	// limit is the wall latency limit; a task with its own deadline
	// (Arrival.Deadline > 0) is held to that instead.
	limit time.Duration
	// tracer, when non-nil, makes every traceEvery-th task carry a trace
	// context and records the benchmark's own spans around it.
	tracer     *telemetry.Tracer
	traceEvery int
}

// usage is a point-in-time reading of the process counters the per-task
// costs are derived from.
type usage struct {
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcPauseNs uint64
	frames    uint64
	wireBytes uint64
}

// readUsage snapshots process CPU (user+sys), allocation and wire counters.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	ws := rpc.WireStats()
	return usage{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcPauseNs: ms.PauseTotalNs,
		frames:    ws.BinaryEncoded + ws.GobEncoded,
		wireBytes: ws.BinaryBytes + ws.GobBytes,
	}
}

// slices is how many equal parts a measured window is cut into. Completion
// times and goodput are computed per slice and the median slice is
// reported, so a host stall or one congestion episode moves one slice, not
// the run. (CPU per task is taken over the whole window: garbage collection
// makes per-slice CPU lumpy, and the whole-window ratio is the steadier one.)
const slices = 10

// sliceOf returns which slice of a window an offset into it falls in;
// offsets past either end belong to the nearest slice.
func sliceOf(at, window time.Duration) int {
	return max(0, min(int(at*slices/window), slices-1))
}

// peakRSSMB is the process's high-water resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// measured is what one measurement window yields, whatever drove it.
type measured struct {
	window time.Duration
	// tct summarises completion times of tasks that got a correct reply.
	tct tct
	// generated = completed + rejected + shed + errored; good is the part
	// of completed inside the latency limit.
	generated, completed, good, rejected, shed, errored int
	// schedExits and servedExits tally scheduled exits of generated tasks
	// and served exits of completed ones.
	schedExits, servedExits [3]int
	// degradedTasks counts replies from a shallower exit than scheduled.
	degradedTasks int
	before, after usage
	// perSlice holds each slice's own statistics.
	perSlice []sliceStat
	// genLagUS is how late each measured task was dispatched (open loop).
	genLagUS     []float64
	inflightPeak int
	proc         procWatch
	// violations are correctness failures; invalid lists reasons the
	// measurement itself cannot be trusted (the generator ran late).
	violations, invalid []string
}

// cpuPerTaskUS is the process CPU spent over the window per completed task,
// in microseconds; 0 when nothing completed.
func (m *measured) cpuPerTaskUS() float64 {
	if m.completed == 0 {
		return 0
	}
	return float64(m.after.cpu-m.before.cpu) / float64(time.Microsecond) / float64(m.completed)
}

// sliceStat is one slice of a measured window.
type sliceStat struct {
	completed, good int
	meanMS, p50MS   float64
	// lagP99US is the generator's p99 dispatch lateness within the slice
	// (open loops; 0 elsewhere).
	lagP99US float64
}

// procWatch is what watching the process over a measured window yields.
type procWatch struct {
	goroutinesPeak int
	// rssMB is the median resident set over the window. The high-water mark
	// (ru_maxrss) is a maximum and as jumpy as one: with multi-MB activation
	// buffers it is a matter of GC timing, 24 to 40 MB across seeds on
	// pipeline-3stage, while the median resident set holds steady.
	rssMB float64
}

// watchProc samples the goroutine count and the resident set every 20 ms
// until stop is closed.
func watchProc(stop <-chan struct{}) <-chan procWatch {
	out := make(chan procWatch, 1)
	go func() {
		w := procWatch{goroutinesPeak: goruntime.NumGoroutine()}
		var rss []float64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				w.rssMB = median(rss)
				out <- w
				return
			case <-tick.C:
				if n := goruntime.NumGoroutine(); n > w.goroutinesPeak {
					w.goroutinesPeak = n
				}
				if mb, ok := residentMB(); ok {
					rss = append(rss, mb)
				}
			}
		}
	}()
	return out
}

// residentMB reads the process's current resident set from /proc.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, false
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), true
}

// runTask issues one task, checks the reply and records the benchmark's own
// spans when the task is traced. due is when the task was scheduled to
// arrive and latency runs from it; the zero time means "now" (closed loop:
// the task arrives when it is sent, so there is no generator wait).
func runTask(ctx context.Context, sys *system, spec loadSpec, a loadgen.Arrival, due time.Time, traced bool, log *violationLog) taskRecord {
	open := !due.IsZero()
	if !open {
		due = time.Now()
	}
	var meta rpc.Meta
	if a.Deadline > 0 {
		meta.Deadline = due.Add(a.Deadline).UnixNano()
	}
	var call *telemetry.Active
	var root telemetry.Span
	if traced {
		tr := spec.tracer
		id := tr.NewID()
		sent := tr.Now()
		root = telemetry.Span{Trace: id, Span: id, Name: "task", Task: a.Task, Start: sent}
		if open {
			root.Start = sent - time.Since(due).Seconds()
			tr.Record(telemetry.Span{Trace: id, Span: tr.NewID(), Parent: id, Name: "gen.wait", Task: a.Task, Start: root.Start, End: sent})
		}
		call = tr.StartSpan(telemetry.SpanContext{Trace: id, Span: id}, sys.rpcSpan).SetTask(a.Task)
		meta.TraceID, meta.SpanID = id, call.Context().Span
	}
	resp, err := sys.issue(ctx, a, meta)
	call.End()
	rec := taskRecord{latency: time.Since(due), sched: int8(a.Exit), outcome: classify(err)}
	if err == nil {
		rec.served = int8(resp.ExitStage)
		limit := spec.limit
		if a.Deadline > 0 {
			limit = a.Deadline
		}
		switch {
		case resp.TaskID != a.Task:
			log.add("task %d on device %d answered as task %d", a.Task, a.Device, resp.TaskID)
			rec.outcome = errored
		case resp.ExitStage < 1 || resp.ExitStage > a.Exit || (!sys.degrading && resp.ExitStage != a.Exit):
			log.add("task %d scheduled for exit %d served at exit %d", a.Task, a.Exit, resp.ExitStage)
			rec.outcome = errored
		case rec.latency > limit:
			rec.outcome = late
		}
	} else if rec.outcome == errored {
		log.add("task %d: %v", a.Task, err)
	}
	if traced {
		root.End = spec.tracer.Now()
		root.Exit = int(rec.served)
		if err != nil {
			root.Note = "error: " + err.Error()
		}
		spec.tracer.Record(root)
	}
	return rec
}

// violationLog collects correctness violations from concurrent tasks,
// keeping the first few verbatim and counting the rest.
type violationLog struct {
	mu    sync.Mutex
	first []string
	total int
}

func (v *violationLog) add(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.total++
	if len(v.first) < 8 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

// list returns the kept violations plus a count of the ones dropped.
func (v *violationLog) list() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := append([]string(nil), v.first...)
	if v.total > len(v.first) {
		out = append(out, fmt.Sprintf("... and %d more", v.total-len(v.first)))
	}
	return out
}

// openInFlight bounds how many open-loop tasks can be in flight. It is far
// above what any workload reaches (the peak is reported as
// bench.inflight_peak); a run that does reach it is reported as invalid,
// because dispatch would then have waited for a task to finish.
const openInFlight = 512

// runOpen drives an open loop: one dispatcher sleeps to each arrival's due
// time and starts the task in a goroutine of its own (no timer and no
// context per task; goroutines exist only while their task is in flight, so
// their stacks do not weigh on the collector's pacing the way an idle pool
// would). Latency is timed from the due time, so dispatch lateness and
// queueing behind a stall count against the system, and the lateness itself
// is reported. Arrivals before the warm-up boundary run but are not
// recorded. It returns once every task has finished.
func runOpen(ctx context.Context, sys *system, spec loadSpec, schedule []loadgen.Arrival, window time.Duration) *measured {
	m := &measured{window: window}
	var log violationLog
	rec := new(recorder)
	inFlight := make(chan struct{}, openInFlight) // counting semaphore
	var wg sync.WaitGroup
	stopWatch := make(chan struct{})
	watch := watchProc(stopWatch)

	start := time.Now()
	measuring := false
	lagBySlice := make([][]float64, slices)
	for i, a := range schedule {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !measuring && a.At >= warmup {
			measuring = true
			m.before = readUsage()
		}
		if measuring {
			k := sliceOf(a.At-warmup, window)
			lagBySlice[k] = append(lagBySlice[k], float64(time.Since(due))/float64(time.Microsecond))
		}
		inFlight <- struct{}{}
		m.inflightPeak = max(m.inflightPeak, len(inFlight))
		traced := measuring && spec.tracer != nil && i%spec.traceEvery == 0
		wg.Add(1)
		go func(a loadgen.Arrival, record bool) {
			defer wg.Done()
			got := runTask(ctx, sys, spec, a, due, traced, &log)
			<-inFlight
			if record {
				rec.add(a.At-warmup, window, got)
			}
		}(a, measuring)
	}
	wg.Wait()
	m.after = readUsage()
	close(stopWatch)
	m.proc = <-watch
	rec.fold(m)
	for k, lag := range lagBySlice {
		m.perSlice[k].lagP99US = percentile(sortedCopy(lag), 99)
		m.genLagUS = append(m.genLagUS, lag...)
	}
	m.violations = log.list()
	if m.inflightPeak >= openInFlight {
		m.invalid = append(m.invalid, fmt.Sprintf("open loop reached its bound of %d tasks in flight: dispatch was no longer open", openInFlight))
	}
	return m
}

// runClosed drives a closed loop: conns x inflight callers each send their
// next task when the previous reply arrives. Tasks sent during the warm-up
// are not recorded; tasks sent inside the window are, and the loop returns
// once they have all been answered.
func runClosed(ctx context.Context, sys *system, spec loadSpec, conns, inflight, exit int, window time.Duration) *measured {
	m := &measured{window: window, inflightPeak: conns * inflight}
	var log violationLog
	var measuring, stop atomic.Bool
	var from time.Time // start of the measured window; written before measuring is set
	rec := new(recorder)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		for k := 0; k < inflight; k++ {
			wg.Add(1)
			go func(c, k int) {
				defer wg.Done()
				for n := uint64(1); !stop.Load(); n++ {
					a := loadgen.Arrival{Device: c, Task: uint64(k)<<40 | n, Exit: exit}
					record := measuring.Load()
					var at time.Duration
					if record {
						at = time.Since(from)
					}
					traced := record && spec.tracer != nil && n%uint64(spec.traceEvery) == 0
					got := runTask(ctx, sys, spec, a, time.Time{}, traced, &log)
					if record {
						rec.add(at, window, got)
					}
				}
			}(c, k)
		}
	}
	stopWatch := make(chan struct{})
	watch := watchProc(stopWatch)
	time.Sleep(warmup)
	m.before = readUsage()
	from = time.Now()
	measuring.Store(true)
	time.Sleep(window)
	stop.Store(true)
	m.after = readUsage()
	wg.Wait()
	close(stopWatch)
	m.proc = <-watch
	rec.fold(m)
	m.violations = log.list()
	return m
}
