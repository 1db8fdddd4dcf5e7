package bench

import (
	"fmt"
	"io"
	"math"

	"leime/internal/cluster"
	"leime/internal/confidence"
	"leime/internal/dataset"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/sim"
)

// fig3 reproduces the offloading-ratio landscapes of Fig. 3: TCT as a
// function of the fixed offloading ratio under varying arrival rate, data
// complexity, bandwidth and propagation delay — showing that the optimal
// ratio moves with every dynamic factor.
func fig3() Experiment {
	return Experiment{
		ID:    "fig3",
		Title: "Fig. 3: TCT vs offloading ratio under dynamic factors (arrival rate, complexity, bandwidth, delay)",
		Run:   runFig3,
	}
}

// fig3Ratios are the swept fixed offloading ratios.
var fig3Ratios = []float64{0, 0.2, 0.4, 0.6, 0.8, 1}

func runFig3(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	// The paper fixes the trained Multi-exit Inception v3's exits for these
	// experiments (§II-B2 uses exits 1/14/16 of its profiling chain; in this
	// reproduction's 16-element chain the equivalent fixed setting is exit-3
	// — the first position with a meaningful exit rate — and exit-14).
	params, err := paramsFor(p, sigma, 3, 14, true)
	if err != nil {
		return err
	}

	base := fig3Env()

	// (a) Arrival rate sweep.
	rates := []float64{2, 6, 15}
	if quick {
		rates = rates[:2]
	}
	fmt.Fprintln(w, "(a) TCT (s) vs offloading ratio under task arrival rate (tasks/slot):")
	if err := fig3Sweep(w, "rate", rates, func(rate float64) (offload.ModelParams, offload.Device, error) {
		dev := base
		dev.ArrivalMean = rate
		return params, dev, nil
	}); err != nil {
		return err
	}

	// (b) First-exit exit-rate sweep via dataset complexity.
	easyFracs := []float64{0.15, 0.5, 0.85}
	if quick {
		easyFracs = easyFracs[:2]
	}
	fmt.Fprintln(w, "(b) TCT (s) vs offloading ratio under First-exit exit rate (dataset complexity):")
	if err := fig3Sweep(w, "sigma1", easyFracs, func(frac float64) (offload.ModelParams, offload.Device, error) {
		ds, err := dataset.Generate(dataset.CIFAR10Like.WithEasyFrac(frac), calibSize, calibSeed)
		if err != nil {
			return params, base, err
		}
		_, _, sg, err := confidence.Calibrated(p, ds, calibSeed)
		if err != nil {
			return params, base, err
		}
		pm, err := paramsFor(p, sg, 3, 14, true)
		if err != nil {
			return params, base, err
		}
		return pm, base, nil
	}); err != nil {
		return err
	}

	// (c) Bandwidth sweep (paper: 8 Mbps => ratio 1; 128 Mbps => ratio 0.4).
	bandwidths := []float64{2, 8, 32, 128}
	if quick {
		bandwidths = bandwidths[:2]
	}
	fmt.Fprintln(w, "(c) TCT (s) vs offloading ratio under bandwidth (Mbps):")
	if err := fig3Sweep(w, "mbps", bandwidths, func(bw float64) (offload.ModelParams, offload.Device, error) {
		dev := base
		dev.BandwidthBps = cluster.Mbps(bw)
		return params, dev, nil
	}); err != nil {
		return err
	}

	// (d) Propagation delay sweep.
	delays := []float64{0.01, 0.05, 0.2}
	if quick {
		delays = delays[:2]
	}
	fmt.Fprintln(w, "(d) TCT (s) vs offloading ratio under propagation delay (s):")
	return fig3Sweep(w, "delay_s", delays, func(d float64) (offload.ModelParams, offload.Device, error) {
		dev := base
		dev.LatencySec = d
		return params, dev, nil
	})
}

func fig3Env() offload.Device {
	return offload.Device{
		FLOPS:        cluster.RaspberryPi3B.FLOPS,
		BandwidthBps: cluster.Mbps(4),
		LatencySec:   0.02,
		ArrivalMean:  6,
	}
}

// fig3Sweep prints one table: rows are parameter values, columns are the
// fixed ratios, plus the per-row optimal ratio.
func fig3Sweep(w io.Writer, label string, values []float64, configure func(float64) (offload.ModelParams, offload.Device, error)) error {
	header := []string{label}
	for _, r := range fig3Ratios {
		header = append(header, fmt.Sprintf("x=%.1f", r))
	}
	header = append(header, "best_x")
	tbl := metrics.NewTable(header...)
	for _, v := range values {
		params, dev, err := configure(v)
		if err != nil {
			return err
		}
		row := make([]any, 0, len(header))
		row = append(row, v)
		best, bestRatio := math.Inf(1), 0.0
		for _, r := range fig3Ratios {
			tct, err := fig3SlotTCT(params, dev, r)
			if err != nil {
				return err
			}
			row = append(row, tct)
			if tct < best {
				best, bestRatio = tct, r
			}
		}
		row = append(row, bestRatio)
		tbl.AddRow(row...)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w)
	return nil
}

func fig3SlotTCT(params offload.ModelParams, dev offload.Device, ratio float64) (float64, error) {
	policy := offload.FixedRatio(ratio)
	res, err := sim.RunSlots(sim.SlotConfig{
		Model:   params,
		Devices: []sim.DeviceSpec{{Device: dev, Policy: &policy}},
		// The paper's testbed shares the edge across six devices; this
		// device sees one share.
		EdgeFLOPS:   cluster.EdgeDesktop.FLOPS / 6,
		CloudFLOPS:  cluster.CloudV100.FLOPS,
		EdgeCloud:   cluster.InternetDefault,
		TauSec:      1,
		V:           1e4,
		Slots:       200,
		WarmupSlots: 40,
		Seed:        13,
	})
	if err != nil {
		return 0, err
	}
	return res.MeanTCT, nil
}
