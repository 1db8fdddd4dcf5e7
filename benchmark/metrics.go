package main

import (
	"sort"
	"time"

	"leime/internal/runtime"
)

// metricDef declares one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tct_p50_ms", "ms", lower, 0.25},
	{"tct_mean_ms", "ms", lower, 0.25},
	{"goodput_per_s", "1/s", higher, 0.25},
	{"ok_share", "ratio", higher, 0.03},
	{"correct_per_s", "1/s", higher, 0.25},
	{"cpu_us_per_task", "us", lower, 0.25},
	{"rss_mb", "MB", lower, 0.25},
}

// perLayerDefs are the metrics of single layers (layer = module), from the
// traced run (T), from counters (C) and from probes timing public calls from
// outside (P). The README says which end-to-end metric each should move.
var perLayerDefs = []metricDef{
	// host calibration (P): lets files from different machines be normalised.
	{"host.nproc", "count", higher, 0},
	{"host.spin_ns", "ns", lower, 0},
	{"host.sleep_overshoot_us", "us", lower, 0},
	{"host.loopback_rtt_us", "us", lower, 0},
	// The end-to-end tail. It is reported here, without a bound, because on a
	// window the run-time cap allows its run-to-run spread exceeds any bound
	// the contract admits; see the README.
	{"e2e.tct_p99_ms", "ms", lower, 0},
	{"e2e.tct_mean_all_ms", "ms", lower, 0},
	{"e2e.tct_samples", "count", higher, 0},
	{"e2e.fail_share", "ratio", lower, 0},
	// bench, the load generator (C): validity only.
	{"bench.gen_lag_p50_us", "us", lower, 0},
	{"bench.gen_lag_p99_us", "us", lower, 0},
	{"bench.inflight_peak", "count", lower, 0},
	{"bench.slices_late", "count", lower, 0},
	// proc, the Go process (C).
	{"proc.allocs_per_task", "count", lower, 0},
	{"proc.alloc_bytes_per_task", "B", lower, 0},
	{"proc.gc_pause_ms", "ms", lower, 0},
	{"proc.goroutines_peak", "count", lower, 0},
	{"proc.peak_rss_mb", "MB", lower, 0},
	// rpc (P, C, T).
	{"rpc.call_rtt_us", "us", lower, 0},
	{"rpc.call_allocs", "count", lower, 0},
	{"rpc.call_large_rtt_us", "us", lower, 0},
	{"rpc.call_large_allocs", "count", lower, 0},
	{"rpc.call_large_mb_per_s", "MB/s", higher, 0},
	{"rpc.concurrent_calls_per_s", "1/s", higher, 0},
	{"rpc.dial_us", "us", lower, 0},
	{"rpc.frames_per_task", "count", lower, 0},
	{"rpc.wire_bytes_per_task", "B", lower, 0},
	{"rpc.first_block_self_us", "us", lower, 0},
	{"rpc.cloud_self_us", "us", lower, 0},
	// exec, runtime.Executor (P).
	{"exec.do_ns", "ns", lower, 0},
	{"exec.do_allocs", "count", lower, 0},
	{"exec.do_policy_ns", "ns", lower, 0},
	{"exec.do_policy_allocs", "count", lower, 0},
	{"exec.reject_ns", "ns", lower, 0},
	{"exec.parallel_do_ns", "ns", lower, 0},
	{"exec.sleep_overshoot_us", "us", lower, 0},
	// edge (T, C).
	{"edge.queue_wait_mean_us", "us", lower, 0},
	{"edge.queue_wait_p99_us", "us", lower, 0},
	{"edge.block1_us", "us", lower, 0},
	{"edge.block2_us", "us", lower, 0},
	{"edge.service_overshoot_pct", "%", lower, 0},
	{"edge.rejected", "count", lower, 0},
	{"edge.shed", "count", lower, 0},
	{"edge.degraded_share", "ratio", lower, 0},
	// cloud (T).
	{"cloud.queue_wait_us", "us", lower, 0},
	{"cloud.block3_us", "us", lower, 0},
	// device and offload (T, C, P).
	{"device.decision_us", "us", lower, 0},
	{"device.queue_wait_us", "us", lower, 0},
	{"device.block1_us", "us", lower, 0},
	{"device.uplink_us", "us", lower, 0},
	{"device.fallbacks", "count", lower, 0},
	{"device.degraded", "count", lower, 0},
	{"offload.ratio_mean", "ratio", higher, 0},
	{"offload.decide_ns", "ns", lower, 0},
	{"offload.allocate_ns", "ns", lower, 0},
	{"offload.select_edge_ns", "ns", lower, 0},
	// netem (P).
	{"netem.acquire_ns", "ns", lower, 0},
	{"netem.shape_err_pct", "%", lower, 0},
	// pipeline (T, C).
	{"pipeline.stage0_us", "us", lower, 0},
	{"pipeline.stage1_us", "us", lower, 0},
	{"pipeline.stage2_us", "us", lower, 0},
	{"pipeline.stage_queue_wait_us", "us", lower, 0},
	{"pipeline.hop_self_us", "us", lower, 0},
	{"pipeline.degraded", "count", lower, 0},
	// control (P).
	{"control.predict_ns", "ns", lower, 0},
	{"control.window_ns", "ns", lower, 0},
	{"control.plan_us", "us", lower, 0},
	// offline solvers (P): they run in set-up.
	{"exitsetting.bnb_us", "us", lower, 0},
	{"exitsetting.exhaustive_us", "us", lower, 0},
	{"exitsetting.cost_eval_ns", "ns", lower, 0},
	{"partition.solve_us", "us", lower, 0},
	{"loadgen.schedule_us", "us", lower, 0},
	// sim, model reconciliation.
	{"sim.events_per_s", "1/s", higher, 0},
	{"sim.tct_mean_ms", "ms", lower, 0},
	{"sim.gap_pct", "%", lower, 0},
	{"partition.gap_pct", "%", lower, 0},
	// telemetry and trace.
	{"telemetry.span_ns", "ns", lower, 0},
	{"telemetry.span_off_ns", "ns", lower, 0},
	{"telemetry.overhead_pct", "%", lower, 0},
	{"telemetry.spans_per_task", "count", lower, 0},
	{"telemetry.spans_dropped", "count", lower, 0},
	{"trace.unattributed_pct", "%", lower, 0},
}

// render turns measured numbers into the reported map: every declared
// metric is present, with 0 for those the workload does not exercise.
func render(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}

// endToEnd derives the end-to-end metrics of one untraced measurement.
// setups holds the duration of every set-up the run performed. Completion
// times and goodput are the median slice's (see slices). within is each sampled
// metric's spread inside this one run (over its set-ups or its slices): the
// noise estimate -compare falls back on when a report holds a single run.
func endToEnd(m *measured, setups []time.Duration) (out, within map[string]float64) {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	sliceSec := m.window.Seconds() / slices
	var means, p50s, goodput []float64
	steady, _ := m.steadySlices()
	for _, s := range steady {
		goodput = append(goodput, float64(s.good)/sliceSec)
		if s.completed > 0 {
			means = append(means, s.meanMS)
			p50s = append(p50s, s.p50MS)
		}
	}
	// Correct answers per second weight each good completion by the
	// accuracy of the exit that served it (the run's served mix).
	var served, weighted float64
	for e, n := range m.servedExits {
		served += float64(n)
		weighted += float64(n) * runtime.DefaultExitAccuracy[e]
	}
	within = map[string]float64{
		"setup_s": spread(secs), "tct_p50_ms": spread(p50s), "tct_mean_ms": spread(means), "goodput_per_s": spread(goodput),
	}
	out = map[string]float64{
		"setup_s":       median(secs),
		"tct_p50_ms":    median(p50s),
		"tct_mean_ms":   median(means),
		"goodput_per_s": median(goodput),
		"rss_mb":        m.proc.rssMB,
	}
	out["cpu_us_per_task"] = m.cpuPerTaskUS()
	if out["tct_p50_ms"] == 0 {
		// The devices keep no per-task times: their median is the run's.
		out["tct_p50_ms"] = m.tct.P50
	}
	if served > 0 {
		out["correct_per_s"] = out["goodput_per_s"] * weighted / served
	}
	if m.generated > 0 {
		out["ok_share"] = float64(m.good) / float64(m.generated)
	}
	within["correct_per_s"] = within["goodput_per_s"]
	return out, within
}

// counted derives the per-layer metrics that come from counters of the
// measured (traced) window rather than from spans or probes.
func counted(m *measured) map[string]float64 {
	_, late := m.steadySlices()
	out := map[string]float64{
		"e2e.tct_p99_ms":       m.tct.P99,
		"e2e.tct_mean_all_ms":  m.tct.Mean,
		"e2e.tct_samples":      float64(m.tct.Samples),
		"bench.inflight_peak":  float64(m.inflightPeak),
		"bench.slices_late":    float64(late),
		"proc.goroutines_peak": float64(m.proc.goroutinesPeak),
		"proc.peak_rss_mb":     peakRSSMB(),
		"proc.gc_pause_ms":     float64(m.after.gcPauseNs-m.before.gcPauseNs) / 1e6,
		"edge.rejected":        float64(m.rejected),
		"edge.shed":            float64(m.shed),
	}
	if m.generated > 0 {
		out["e2e.fail_share"] = 1 - float64(m.good)/float64(m.generated)
	}
	if n := float64(m.completed); n > 0 {
		out["proc.allocs_per_task"] = float64(m.after.mallocs-m.before.mallocs) / n
		out["proc.alloc_bytes_per_task"] = float64(m.after.bytes-m.before.bytes) / n
		out["rpc.frames_per_task"] = float64(m.after.frames-m.before.frames) / n
		out["rpc.wire_bytes_per_task"] = float64(m.after.wireBytes-m.before.wireBytes) / n
		out["edge.degraded_share"] = float64(m.degradedTasks) / n
	}
	if len(m.genLagUS) > 0 {
		lag := sortedCopy(m.genLagUS)
		out["bench.gen_lag_p50_us"] = percentile(lag, 50)
		out["bench.gen_lag_p99_us"] = percentile(lag, 99)
	}
	return out
}

// maxGenLagP99US is the dispatch lateness beyond which the generator, not
// the system, shaped the latencies. A slice over it is left out of the
// median slice (a hypervisor stall of 50 ms at 70 % utilisation leaves a
// backlog that takes 170 ms to drain); a run whose whole window is over it,
// or that has to leave out more than half its slices, is reported invalid.
const maxGenLagP99US = 5000

// steadySlices returns the slices the generator reached on time and how
// many it did not. When more than half were late there is no steady majority
// to take a median of: every slice is returned and the run is invalid.
func (m *measured) steadySlices() (steady []sliceStat, late int) {
	for _, s := range m.perSlice {
		if s.lagP99US <= maxGenLagP99US {
			steady = append(steady, s)
		}
	}
	late = len(m.perSlice) - len(steady)
	if 2*late > len(m.perSlice) {
		return m.perSlice, late
	}
	return steady, late
}

// traced derives the per-layer metrics that come from spans: each layer's
// mean time per traced task, so that the self times and the unattributed
// remainder add up to the mean task duration.
func traced(f folded, w *workload) map[string]float64 {
	out := map[string]float64{
		"rpc.first_block_self_us": f.perTaskUS(pickSelf, "rpc.first_block"),
		"rpc.cloud_self_us":       f.perTaskUS(pickSelf, "rpc.cloud"),
		"edge.queue_wait_mean_us": f.perTaskUS(pickTotal, "edge.queue"),
		"edge.block1_us":          f.perTaskUS(pickTotal, "edge.block1"),
		"edge.block2_us":          f.perTaskUS(pickTotal, "edge.block2"),
		"cloud.queue_wait_us":     f.perTaskUS(pickTotal, "cloud.queue"),
		"cloud.block3_us":         f.perTaskUS(pickTotal, "cloud.block3"),
	}
	if t := f.byName["edge.queue"]; t != nil {
		d := append([]float64(nil), t.durs...)
		sort.Float64s(d)
		out["edge.queue_wait_p99_us"] = percentile(d, 99) * 1e6
	}
	if f.rootTotal > 0 {
		out["trace.unattributed_pct"] = f.unattributed / f.rootTotal * 100
	}
	if f.tasks > 0 {
		var spans int
		for _, t := range f.byName {
			spans += t.count
		}
		out["telemetry.spans_per_task"] = float64(spans) / float64(f.tasks)
	}
	switch {
	case w.devices:
		out["device.decision_us"] = f.perTaskUS(pickTotal, "device.decision")
		out["device.queue_wait_us"] = f.perTaskUS(pickTotal, "device.queue")
		out["device.block1_us"] = f.perTaskUS(pickTotal, "device.block1")
		// What the device's two rpc spans do not hand to the edge is the
		// shaped uplink, the wire and the reply.
		out["device.uplink_us"] = f.perTaskUS(pickSelf, "rpc.first_block", "rpc.second_block")
	case w.pipeline:
		out["pipeline.stage0_us"] = f.perTaskUS(pickTotal, "edge.stage0")
		out["pipeline.stage1_us"] = f.perTaskUS(pickTotal, "edge.stage1")
		out["pipeline.stage2_us"] = f.perTaskUS(pickTotal, "edge.stage2")
		out["pipeline.stage_queue_wait_us"] = out["edge.queue_wait_mean_us"]
		out["pipeline.hop_self_us"] = f.perTaskUS(pickSelf, "pipeline.do", "rpc.stage")
	}
	return out
}
