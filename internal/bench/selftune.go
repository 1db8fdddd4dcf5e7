package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"leime/internal/control"
	"leime/internal/loadgen"
	"leime/internal/metrics"
	"leime/internal/offload"
	"leime/internal/runtime"
)

// Selftune is the closed-loop control-plane study behind DESIGN.md §15, in
// two parts. Part A sweeps offered rate with per-task deadlines and compares
// the static-optimal batch window (the point the capacity experiment
// located) against the adaptive controller that has to find the same
// operating point online from observed arrivals and p99 — adaptive should
// hold its throughput within a few percent while shedding doomed tasks at
// the door instead of timing them out. Part B saturates the edge and
// compares three overload strategies: no degradation, the blind exit-3->2
// cap (which frees no edge compute — block 3 is cloud work), and the
// accuracy-maximizing planner that demotes the cheapest tenants to exit 1.
// The frontier is accuracy-weighted throughput: targeted degradation
// completes more tasks at a modest accuracy cost, so its correct answers
// per second dominate both baselines past the knee.
func Selftune() Experiment {
	return Experiment{
		ID:    "selftune",
		Title: "Self-tuning control plane: adaptive batching and degradation frontier",
		Run:   runSelftune,
	}
}

// selftuneModel is the capacity experiment's workload: the sweep straddles
// the ~73 tasks/s/tenant knee of a 4 GFLOPS edge split four ways.
func selftuneModel() offload.ModelParams {
	return offload.ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
}

const (
	selftuneDevices   = 4
	selftuneEdgeFLOPS = 4e9
	selftuneScale     = runtime.Scale(0.02)
	selftuneBudgetSec = 3.0
	selftuneSeed      = 77
	// selftuneDeadlineSec is the per-task wall-clock budget: generous next
	// to the ~14 ms expected service below the knee, so sub-knee points
	// should miss essentially never.
	selftuneDeadlineSec = 1.0
)

func runSelftune(w io.Writer, quick bool) error {
	rates := []float64{30, 60, 120, 240}
	duration := 1500 * time.Millisecond
	if quick {
		rates = []float64{30, 120}
		duration = 400 * time.Millisecond
	}
	if err := runSelftuneAdaptive(w, rates, duration); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return runSelftuneDegrade(w, rates, duration)
}

// sweepVariant runs the standard selftune testbed (fresh edge + cloud) under
// one control policy across the rate sweep.
func sweepVariant(policy runtime.ControlPolicy, idPrefix string, rates []float64, duration time.Duration, deadlineSec float64) (*loadgen.SweepResult, error) {
	model := selftuneModel()
	cloud, err := runtime.StartCloud(runtime.CloudConfig{
		Addr:        "127.0.0.1:0",
		FLOPS:       2e12,
		Block3FLOPs: model.Mu[2],
		TimeScale:   selftuneScale,
	})
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	edge, err := runtime.StartEdge(runtime.EdgeConfig{
		Addr:      "127.0.0.1:0",
		FLOPS:     selftuneEdgeFLOPS,
		Model:     model,
		CloudAddr: cloud.Addr(),
		TimeScale: selftuneScale,
		Policy:    policy,
	})
	if err != nil {
		return nil, err
	}
	defer edge.Close()
	return loadgen.Sweep(context.Background(), loadgen.Config{
		EdgeAddr:    edge.Addr(),
		Devices:     selftuneDevices,
		Duration:    duration,
		Seed:        selftuneSeed,
		Model:       model,
		DeadlineSec: deadlineSec,
		IDPrefix:    idPrefix,
	}, rates)
}

// runSelftuneAdaptive is part A: static-optimal window vs the adaptive
// controller, both under the same admission budget and deadline workload.
func runSelftuneAdaptive(w io.Writer, rates []float64, duration time.Duration) error {
	static, err := sweepVariant(runtime.ControlPolicy{
		MaxBacklogSec: selftuneBudgetSec,
		Batch:         control.Batch{MaxSize: 8, MaxDelaySec: 0.05},
	}, "st-static", rates, duration, selftuneDeadlineSec)
	if err != nil {
		return err
	}
	adaptive, err := sweepVariant(runtime.ControlPolicy{
		MaxBacklogSec:     selftuneBudgetSec,
		DeadlineAdmission: true,
		EDF:               true,
		AdaptiveBatch:     true,
	}, "st-adapt", rates, duration, selftuneDeadlineSec)
	if err != nil {
		return err
	}

	tbl := metrics.NewTable("rate_per_dev", "static_per_s", "adaptive_per_s", "ratio", "adaptive_miss_pct", "adaptive_p99_ms")
	for i := range rates {
		sp, ap := static.Points[i], adaptive.Points[i]
		ratio := 0.0
		if sp.AchievedRate > 0 {
			ratio = ap.AchievedRate / sp.AchievedRate
		}
		missPct := 0.0
		if ap.Generated > 0 {
			missPct = 100 * float64(ap.DeadlineSheds) / float64(ap.Generated)
		}
		tbl.AddRow(rates[i], sp.AchievedRate, ap.AchievedRate, ratio, missPct, ap.Latency.P99*1000)
	}
	fmt.Fprintf(w, "Adaptive window vs static optimum: %d devices, %.3g FLOPS edge, %.0fs deadline base:\n",
		selftuneDevices, selftuneEdgeFLOPS, selftuneDeadlineSec)
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nThe static variant pins the window the capacity experiment found optimal;")
	fmt.Fprintln(w, "the adaptive variant must find it online. Ratio near 1 across the sweep")
	fmt.Fprintln(w, "means the controller tracks the static optimum; sub-knee miss percentages")
	fmt.Fprintln(w, "near 0 mean deadline admission only refuses genuinely doomed work.")
	return nil
}

// degradeStrategy is one overload-handling configuration of part B.
type degradeStrategy struct {
	name   string
	policy runtime.ControlPolicy
}

// runSelftuneDegrade is part B: the accuracy-throughput frontier of the
// degradation strategies. Exits in the loadgen report are the stages the
// edge actually answered through, so aggregate accuracy is measured, not
// planned.
func runSelftuneDegrade(w io.Writer, rates []float64, duration time.Duration) error {
	strategies := []degradeStrategy{
		{name: "none", policy: runtime.ControlPolicy{MaxBacklogSec: selftuneBudgetSec}},
		{name: "blind", policy: runtime.ControlPolicy{
			MaxBacklogSec: selftuneBudgetSec,
			Degrade:       runtime.DegradePolicy{Enabled: true, Blind: true},
		}},
		{name: "targeted", policy: runtime.ControlPolicy{
			MaxBacklogSec: selftuneBudgetSec,
			Degrade:       runtime.DegradePolicy{Enabled: true},
		}},
	}
	acc := runtime.DefaultExitAccuracy

	tbl := metrics.NewTable("strategy", "rate_per_dev", "achieved_per_s", "exit1", "exit2", "exit3", "accuracy", "correct_per_s")
	// goodput[name][i] is strategy name's accuracy-weighted throughput at
	// rates[i] — the frontier the verdict below compares.
	goodput := make(map[string][]float64, len(strategies))
	for _, s := range strategies {
		sweep, err := sweepVariant(s.policy, "st-deg-"+s.name, rates, duration, 0)
		if err != nil {
			return err
		}
		for i, p := range sweep.Points {
			correct := 0.0
			for e, n := range p.Exits {
				correct += float64(n) * acc[e]
			}
			accuracy := 0.0
			if p.Completed > 0 {
				accuracy = correct / float64(p.Completed)
			}
			perSec := correct / duration.Seconds()
			goodput[s.name] = append(goodput[s.name], perSec)
			tbl.AddRow(s.name, rates[i], p.AchievedRate, p.Exits[0], p.Exits[1], p.Exits[2], accuracy, perSec)
		}
	}
	fmt.Fprintf(w, "Degradation frontier: %d devices, %.3g FLOPS edge, %.0f%% planner budget:\n",
		selftuneDevices, selftuneEdgeFLOPS, 100*runtime.DefaultDegradeUtilization)
	fmt.Fprint(w, tbl.String())

	last := len(rates) - 1
	ratio := 0.0
	if goodput["blind"][last] > 0 {
		ratio = goodput["targeted"][last] / goodput["blind"][last]
	}
	fmt.Fprintln(w, "\nBlind 3->2 capping sacrifices deep-exit accuracy without freeing edge")
	fmt.Fprintln(w, "compute (block 3 runs on the cloud), so its throughput tracks the")
	fmt.Fprintln(w, "no-degradation knee; the targeted planner demotes whole tenants to exit 1")
	fmt.Fprintln(w, "only when offered demand exceeds the budget, buying throughput with the")
	fmt.Fprintln(w, "cheapest accuracy available.")
	fmt.Fprintf(w, "Saturated point (%.0f tasks/s/device): targeted delivers %.2fx the correct\nanswers per second of blind capping.\n",
		rates[last], ratio)
	return nil
}
