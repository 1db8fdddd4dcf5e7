package bench

import (
	"fmt"
	"io"
	"math"

	"leime/internal/cluster"
	"leime/internal/exitsetting"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/sim"
)

// motivation reproduces the two headline degradation numbers of §II-B:
// improper exit settings cause 4.47x average degradation; improper task
// offloading causes 2.85x.
func motivation() Experiment {
	return Experiment{
		ID:    "motivation",
		Title: "§II-B: degradation from improper exit settings (paper: 4.47x) and improper offloading (paper: 2.85x)",
		Run:   runMotivation,
	}
}

func runMotivation(w io.Writer, quick bool) error {
	// Part 1: exit-setting degradation. Across architectures and device
	// classes, compare every admissible exit combination's expected TCT to
	// the optimum.
	tbl := metrics.NewTable("model", "environment", "optimal_tct_s", "mean_degradation_x", "worst_degradation_x")
	profiles := model.All()
	if quick {
		profiles = profiles[:2]
	}
	envs := []struct {
		name string
		env  cluster.Env
	}{
		{"testbed", cluster.TestbedEnv(cluster.RaspberryPi3B)},
		{"testbed", cluster.TestbedEnv(cluster.JetsonNano)},
		{"poor-net", cluster.TestbedEnv(cluster.RaspberryPi3B).
			WithDeviceEdge(cluster.Path{BandwidthBps: cluster.Mbps(2), LatencySec: 0.15})},
		{"loaded-edge", cluster.TestbedEnv(cluster.JetsonNano).WithEdgeLoad(0.05)},
	}
	// The model × environment grid fans out on the shared worker pool; rows
	// and the degradation summary are assembled in grid order afterwards.
	type exitCell struct {
		best, mean, worst float64
	}
	cells := make([]exitCell, len(profiles)*len(envs))
	if err := parallelFor(len(cells), func(k int) error {
		p, e := profiles[k/len(envs)], envs[k%len(envs)]
		sigma, err := calibrated(p)
		if err != nil {
			return err
		}
		in, err := exitsetting.NewInstance(p, sigma, e.env)
		if err != nil {
			return err
		}
		best := in.Exhaustive()
		var sum, worst float64
		count := 0
		for e1 := 1; e1 < p.NumExits()-1; e1++ {
			for e2 := e1 + 1; e2 < p.NumExits(); e2++ {
				ratio := in.Cost(e1, e2) / best.Cost
				sum += ratio
				if ratio > worst {
					worst = ratio
				}
				count++
			}
		}
		cells[k] = exitCell{best: best.Cost, mean: sum / float64(count), worst: worst}
		return nil
	}); err != nil {
		return err
	}
	degradations := make([]float64, 0, len(cells))
	for k, c := range cells {
		degradations = append(degradations, c.mean)
		tbl.AddRow(profiles[k/len(envs)].Name, envs[k%len(envs)].name, c.best, c.mean, c.worst)
	}
	var total float64
	for _, d := range degradations {
		total += d
	}
	fmt.Fprintln(w, "Exit-setting degradation (improper combination vs optimal):")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "overall mean degradation: %.2fx (paper reports 4.47x)\n\n", total/float64(len(degradations)))

	// Part 2: offloading degradation. Across dynamic conditions, compare
	// fixed offloading ratios to the per-condition best fixed ratio.
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	params, err := paramsFor(p, sigma, 3, 14, true)
	if err != nil {
		return err
	}
	rates := []float64{8, 14, 20}
	bandwidths := []float64{cluster.Mbps(2), cluster.Mbps(8), cluster.Mbps(32)}
	if quick {
		rates = rates[:2]
		bandwidths = bandwidths[:2]
	}
	ratios := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	tbl2 := metrics.NewTable("arrival_rate", "bandwidth_mbps", "best_ratio", "best_tct_s", "mean_degradation_x")
	// Fan out the (rate, bandwidth) grid; each cell sweeps its fixed
	// offloading ratios serially inside the worker.
	type offCell struct {
		bestRatio, best, mean float64
	}
	offCells := make([]offCell, len(rates)*len(bandwidths))
	if err := parallelFor(len(offCells), func(k int) error {
		rate, bw := rates[k/len(bandwidths)], bandwidths[k%len(bandwidths)]
		tcts := make([]float64, len(ratios))
		best := math.Inf(1)
		bestRatio := 0.0
		for ri, r := range ratios {
			tct, err := motivationSlotTCT(params, rate, bw, r)
			if err != nil {
				return err
			}
			tcts[ri] = tct
			if tct < best {
				best, bestRatio = tct, r
			}
		}
		var sum float64
		for _, tct := range tcts {
			sum += tct / best
		}
		offCells[k] = offCell{bestRatio: bestRatio, best: best, mean: sum / float64(len(tcts))}
		return nil
	}); err != nil {
		return err
	}
	offDegr := make([]float64, 0, len(offCells))
	for k, c := range offCells {
		offDegr = append(offDegr, c.mean)
		tbl2.AddRow(rates[k/len(bandwidths)], bandwidths[k%len(bandwidths)]/1e6, c.bestRatio, c.best, c.mean)
	}
	var total2 float64
	for _, d := range offDegr {
		total2 += d
	}
	fmt.Fprintln(w, "Offloading degradation (fixed ratios vs per-condition best):")
	fmt.Fprint(w, tbl2.String())
	fmt.Fprintf(w, "overall mean degradation: %.2fx (paper reports 2.85x)\n", total2/float64(len(offDegr)))
	return nil
}

// motivationSlotTCT runs the slot model with one Pi-class device at a fixed
// offloading ratio.
func motivationSlotTCT(params offload.ModelParams, rate, bandwidth, ratio float64) (float64, error) {
	policy := offload.FixedRatio(ratio)
	res, err := sim.RunSlots(sim.SlotConfig{
		Model: params,
		Devices: []sim.DeviceSpec{{
			Device: offload.Device{
				FLOPS:        cluster.RaspberryPi3B.FLOPS,
				BandwidthBps: bandwidth,
				LatencySec:   0.02,
				ArrivalMean:  rate,
			},
			Policy: &policy,
		}},
		// One share of a six-tenant edge, as in the paper's testbed.
		EdgeFLOPS:   cluster.EdgeDesktop.FLOPS / 6,
		CloudFLOPS:  cluster.CloudV100.FLOPS,
		EdgeCloud:   cluster.InternetDefault,
		TauSec:      1,
		V:           1e4,
		Slots:       200,
		WarmupSlots: 40,
		Seed:        7,
	})
	if err != nil {
		return 0, err
	}
	return res.MeanTCT, nil
}
