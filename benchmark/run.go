package main

import (
	"bufio"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"leime/internal/telemetry"
)

// An untraced run sets its topology up setupsBefore times, drives the last
// of those, then sets it up setupsAfter more times; setup_s is the median of
// them all. The host's speed drifts on a scale of seconds (a busy
// hyperthread sibling doubles leime.Build's time), so set-ups taken on both
// sides of the eleven-second load see two host states, not one.
const (
	setupsBefore = 3
	setupsAfter  = 4
)

// runDetail is everything one run of one workload found; the parent process
// of a full set reads it from the child's output.
type runDetail struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Traced       bool    `json:"traced"`
	WindowS      float64 `json:"window_s"`
	ScheduleHash string  `json:"schedule_hash"`
	// Correct is false when an output failed its check; Valid is false when
	// the measurement cannot be trusted (the generator ran late).
	Correct    bool     `json:"correct"`
	Valid      bool     `json:"valid"`
	Violations []string `json:"violations,omitempty"`
	Invalid    []string `json:"invalid,omitempty"`
	// Counts holds generated, completed, good, late, rejected, shed and errored.
	Counts map[string]int `json:"counts"`
	TCT    tct            `json:"tct"`
	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run).
	Metrics map[string]value `json:"metrics"`
	// Within is each sampled end-to-end metric's spread inside this run.
	Within    map[string]float64 `json:"within,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// detailOf fills the parts of the detail every run shares and applies the
// checks every workload shares.
func detailOf(w *workload, seed int64, isTraced bool, m *measured, hash string) *runDetail {
	d := &runDetail{
		Workload: w.name, Seed: seed, Traced: isTraced, WindowS: m.window.Seconds(), ScheduleHash: hash,
		Violations: m.violations, Invalid: m.invalid, TCT: m.tct,
		Counts: map[string]int{
			"generated": m.generated, "completed": m.completed, "good": m.good, "late": m.completed - m.good,
			"rejected": m.rejected, "shed": m.shed, "errored": m.errored,
		},
	}
	if m.generated == 0 {
		d.Violations = append(d.Violations, "no task was generated")
	}
	if got := m.completed + m.rejected + m.shed + m.errored; got != m.generated {
		d.Violations = append(d.Violations, fmt.Sprintf("conservation: generated %d, accounted for %d", m.generated, got))
	}
	// Only edge-overload may refuse, shed or degrade. A correct reply after
	// the latency limit is a performance failure, not an incorrect output: it
	// lowers ok_share (bound 1 %) and leaves the correctness bit alone, so
	// one host stall cannot fail a run of 700 000 tasks.
	if w.name != "edge-overload" && m.completed != m.generated {
		d.Violations = append(d.Violations, fmt.Sprintf("%d of %d tasks were refused, shed or failed", m.generated-m.completed, m.generated))
	}
	if w.name != "edge-overload" && m.schedExits != [3]int{} && m.servedExits != m.schedExits {
		d.Violations = append(d.Violations, fmt.Sprintf("served exit mix %v differs from the scheduled mix %v", m.servedExits, m.schedExits))
	}
	if len(m.genLagUS) > 0 {
		if p99 := percentile(sortedCopy(m.genLagUS), 99); p99 > maxGenLagP99US {
			d.Invalid = append(d.Invalid, fmt.Sprintf("generator lag p99 %.0f us exceeds %d us", p99, maxGenLagP99US))
		}
	}
	if _, late := m.steadySlices(); 2*late > len(m.perSlice) {
		d.Invalid = append(d.Invalid, fmt.Sprintf("the generator ran late in %d of %d slices", late, len(m.perSlice)))
	}
	d.Correct = len(d.Violations) == 0
	d.Valid = len(d.Invalid) == 0
	return d
}

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, seed int64, window time.Duration) (*runDetail, error) {
	var setups []time.Duration
	var m *measured
	var hash string
	if w.devices {
		slots := deviceSlots(window)
		for i := 1; i <= setupsBefore+setupsAfter; i++ {
			start := time.Now()
			run, err := runDevices(seed, slots, i != setupsBefore, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, run.ready.Sub(start))
			if i == setupsBefore {
				m = deviceMeasured(run, window, w.limit)
			}
		}
		var err error
		if hash, err = deviceScheduleHash(seed, slots); err != nil {
			return nil, err
		}
	} else {
		for i := 1; i <= setupsBefore+setupsAfter; i++ {
			start := time.Now()
			b, err := w.build(ctx, seed, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start))
			if i == setupsBefore {
				m, hash, err = w.load(ctx, b, seed, window, nil)
			}
			b.sys.close()
			if err != nil {
				return nil, err
			}
		}
	}
	d := detailOf(w, seed, false, m, hash)
	values, within := endToEnd(m, setups)
	d.Metrics, d.Within = render(endToEndDefs, values), within
	return d, nil
}

// runTraced measures a workload's per-layer metrics. On one topology it
// drives a quarter-length window untraced (tasks carry no trace context, so
// no tier records a span) and a half-length window traced; the difference in
// CPU per task is the tracing overhead. The layer probes run afterwards.
func runTraced(ctx context.Context, w *workload, seed int64, window time.Duration, outDir string) (*runDetail, error) {
	plain, full := window/4, window/2
	got := map[string]float64{}
	var m, base *measured
	var hash string
	var b *built
	tr := telemetry.NewTracer(w.ringSize(full))
	if w.devices {
		run, err := runDevices(seed, deviceSlots(plain), false, nil)
		if err != nil {
			return nil, err
		}
		base = deviceMeasured(run, plain, w.limit)
		slots := deviceSlots(full)
		if run, err = runDevices(seed, slots, false, tr); err != nil {
			return nil, err
		}
		m = deviceMeasured(run, full, w.limit)
		if hash, err = deviceScheduleHash(seed, slots); err != nil {
			return nil, err
		}
		var ratio, fallbacks, degraded float64
		for _, st := range run.stats {
			ratio += st.Ratio.Mean() / float64(len(run.stats))
			fallbacks += float64(st.Fallbacks)
			degraded += float64(st.Degraded)
		}
		got["offload.ratio_mean"], got["device.fallbacks"], got["device.degraded"] = ratio, fallbacks, degraded
		eps, simMS, err := simulate(seed, slots)
		if err != nil {
			return nil, err
		}
		got["sim.events_per_s"], got["sim.tct_mean_ms"] = eps, simMS
		if simMS > 0 {
			got["sim.gap_pct"] = (m.tct.Mean/simMS - 1) * 100
		}
	} else {
		var err error
		if b, err = w.build(ctx, seed, tr); err != nil {
			return nil, err
		}
		defer b.sys.close()
		if base, _, err = w.load(ctx, b, seed+1, plain, nil); err != nil {
			return nil, err
		}
		if m, hash, err = w.load(ctx, b, seed, full, tr); err != nil {
			return nil, err
		}
		if w.pipeline {
			got["pipeline.degraded"] = float64(m.degradedTasks)
			if want := b.plan.ExpectedLatencySec * float64(pipelineScale) * 1000; want > 0 {
				got["partition.gap_pct"] = (m.tct.Mean/want - 1) * 100
			}
		}
	}
	spans := tr.Spans()
	f := foldSelfTime(spans)
	probes, err := runProbes(ctx)
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{counted(m), traced(f, w), overshoot(spans, w, b), probes} {
		maps.Copy(got, part)
	}
	got["telemetry.spans_dropped"] = float64(tr.Dropped())
	if plainCPU := base.cpuPerTaskUS(); plainCPU > 0 {
		got["telemetry.overhead_pct"] = (m.cpuPerTaskUS()/plainCPU - 1) * 100
	}

	d := detailOf(w, seed, true, m, hash)
	if tr.Dropped() > 0 {
		d.Violations = append(d.Violations, fmt.Sprintf("%d spans were dropped: the tracer ring is too small", tr.Dropped()))
		d.Correct = false
	}
	d.Violations = append(d.Violations, base.violations...)
	d.Correct = d.Correct && len(base.violations) == 0
	d.Metrics = render(perLayerDefs, got)
	d.TraceFile = filepath.Join(outDir, w.name+".trace.jsonl")
	if err := writeTrace(d.TraceFile, tr); err != nil {
		return nil, err
	}
	return d, nil
}

// overshoot reports how much longer the edge's block services slept than
// the model asked for: slept / (Mu / share * scale) - 1, over every traced
// block-1 and block-2 span. It applies to the unbatched open-loop edge
// topology, where each span is one job of milliseconds at a known share (on
// the data-plane workloads the model asks for a nanosecond).
func overshoot(spans []telemetry.Span, w *workload, b *built) map[string]float64 {
	if w.edge == nil || w.open == nil || w.edge.policy.AdaptiveBatch || w.edge.policy.Batch.Enabled() {
		return nil
	}
	var slept, asked float64
	for _, s := range spans {
		block := -1
		switch s.Name {
		case "edge.block1":
			block = 0
		case "edge.block2":
			block = 1
		}
		share := b.sys.shares[s.Device]
		if block < 0 || share <= 0 {
			continue
		}
		slept += s.End - s.Start
		asked += b.scale.Seconds(b.model.Mu[block] / share).Seconds()
	}
	if asked == 0 {
		return nil
	}
	return map[string]float64{"edge.service_overshoot_pct": (slept/asked - 1) * 100}
}

// writeTrace writes the tracer's spans as JSON Lines.
func writeTrace(path string, tr *telemetry.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteJSONL(bw); err != nil {
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
