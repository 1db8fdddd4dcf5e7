package leime

// One benchmark per paper artifact: each BenchmarkFig* regenerates the
// corresponding figure's data (quick sweeps) per iteration, so
// `go test -bench=. -benchmem` exercises every experiment end to end.
// The micro-benchmarks below them time the core algorithms in isolation.

import (
	"io"
	"testing"

	"leime/internal/bench"
	"leime/internal/cluster"
	"leime/internal/confidence"
	"leime/internal/dataset"
	"leime/internal/exitsetting"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMotivation(b *testing.B)            { benchExperiment(b, "motivation") }
func BenchmarkFig2ExitSetting(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3OffloadRatio(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig6Accuracy(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7Network(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8Models(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9Stability(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10aExitAblation(b *testing.B)    { benchExperiment(b, "fig10a") }
func BenchmarkFig10bOffloadAblation(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig11Scaling(b *testing.B)          { benchExperiment(b, "fig11") }

// BenchmarkRunAllSerial and BenchmarkRunAllParallel time the full
// experiment suite through the runner at parallelism 1 vs NumCPU; their
// ratio is the wall-clock payoff of the parallel runner.
func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAll(io.Discard, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAll(io.Discard, true, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Beyond-paper ablation, extension and validation experiments.
func BenchmarkAblationV(b *testing.B)      { benchExperiment(b, "ablation-v") }
func BenchmarkAblationAlloc(b *testing.B)  { benchExperiment(b, "ablation-alloc") }
func BenchmarkAblationSolver(b *testing.B) { benchExperiment(b, "ablation-solver") }
func BenchmarkWildLinks(b *testing.B)      { benchExperiment(b, "wildlinks") }
func BenchmarkExtDeadline(b *testing.B)    { benchExperiment(b, "ext-deadline") }
func BenchmarkExtJoint(b *testing.B)       { benchExperiment(b, "ext-joint") }

// benchInstance prepares a calibrated exit-setting instance once.
func benchInstance(b *testing.B, p *model.Profile) *exitsetting.Instance {
	b.Helper()
	ds, err := dataset.Generate(dataset.CIFAR10Like, 1000, 3)
	if err != nil {
		b.Fatal(err)
	}
	_, _, sigma, err := confidence.Calibrated(p, ds, 3)
	if err != nil {
		b.Fatal(err)
	}
	in, err := exitsetting.NewInstance(p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkExitSettingBranchAndBound times the paper's O(m ln m) solver.
func BenchmarkExitSettingBranchAndBound(b *testing.B) {
	in := benchInstance(b, model.ResNet34())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := in.BranchAndBound(); s.E1 < 1 {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkExitSettingExhaustive times the O(m^2) ground-truth solver for
// comparison with the branch-and-bound benchmark above.
func BenchmarkExitSettingExhaustive(b *testing.B) {
	in := benchInstance(b, model.ResNet34())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := in.Exhaustive(); s.E1 < 1 {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkOffloadDecide times one per-slot decentralized offloading
// decision (the per-device, per-slot cost of LEIME's controller).
func BenchmarkOffloadDecide(b *testing.B) {
	ctrl, err := offload.NewController(offload.Config{
		Model: offload.ModelParams{
			Mu:    [3]float64{2e8, 8e8, 1e9},
			D:     [3]float64{3088, 65536, 8192},
			Sigma: [3]float64{0.4, 0.8, 1},
		},
		TauSec: 1,
		V:      1e4,
	})
	if err != nil {
		b.Fatal(err)
	}
	dev := offload.Device{FLOPS: 1.2e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 10}
	slot := offload.Slot{Arrivals: 10, State: offload.State{Q: 5, H: 2}, EdgeShareFLOPS: 1e10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x := ctrl.Decide(dev, slot); x < 0 || x > 1 {
			b.Fatal("bad decision")
		}
	}
}

// BenchmarkEventSimThroughput measures the discrete-event simulator's task
// throughput (tasks simulated per second of wall time).
func BenchmarkEventSimThroughput(b *testing.B) {
	cfg := sim.EventConfig{
		Model: offload.ModelParams{
			Mu:    [3]float64{2e8, 8e8, 1e9},
			D:     [3]float64{3088, 65536, 8192},
			Sigma: [3]float64{0.4, 0.8, 1},
		},
		Devices: []sim.DeviceSpec{{Device: offload.Device{
			FLOPS: 1.2e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 10,
		}}},
		EdgeFLOPS:   6e10,
		CloudFLOPS:  2e12,
		EdgeCloud:   cluster.InternetDefault,
		TauSec:      1,
		V:           1e4,
		Slots:       100,
		WarmupSlots: 10,
		Seed:        5,
	}
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		res, err := sim.RunEvents(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tasks += res.Completed
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkBuild times a full System build: dataset generation, threshold
// calibration and the exit-setting solve.
func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(Options{Arch: "inception-v3", Env: TestbedEnv(RaspberryPi3B)}); err != nil {
			b.Fatal(err)
		}
	}
}
