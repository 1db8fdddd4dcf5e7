package bench

import (
	"fmt"
	"io"

	"leime/internal/cluster"
	"leime/internal/exitsetting"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/sim"
)

// fig10a reproduces the exit-setting ablation of Fig. 10(a): LEIME's exit
// setting vs min_comp, min_tran and mean, all using LEIME's offloading.
// Paper: LEIME wins everywhere; the speedup is larger on big models
// (Inception v3, ResNet-34) than small ones; min_tran is generally worst.
func fig10a() Experiment {
	return Experiment{
		ID:    "fig10a",
		Title: "Fig. 10(a): exit-setting ablation (LEIME vs min_comp/min_tran/mean)",
		Run:   runFig10a,
	}
}

func runFig10a(w io.Writer, quick bool) error {
	ablations := []scheme{
		{name: "LEIME", strategy: exitsetting.LEIME(), policy: offload.Lyapunov()},
		{name: "min_comp", strategy: exitsetting.MinComp(), policy: offload.Lyapunov()},
		{name: "min_tran", strategy: exitsetting.MinTran(), policy: offload.Lyapunov()},
		{name: "mean", strategy: exitsetting.Mean(), policy: offload.Lyapunov()},
	}
	// The edge is shared (8% share) and the load is moderate, so offloading
	// is partial and the exit setting's device/edge split actually matters —
	// the operating regime of the paper's testbed.
	env := cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(0.08)
	profiles := model.All()
	if quick {
		profiles = profiles[:2]
	}
	header := []string{"model"}
	for _, sc := range ablations {
		header = append(header, sc.name)
	}
	header = append(header, "worst_speedup_vs_leime")
	tbl := metrics.NewTable(header...)
	for _, p := range profiles {
		sigma, err := calibrated(p)
		if err != nil {
			return err
		}
		row := []any{p.Name}
		var leimeTCT, worst float64
		for _, sc := range ablations {
			wl := fig7Workload()
			wl.rate = 2
			tct, err := schemeTCT(sc, p, sigma, env, wl)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", sc.name, p.Name, err)
			}
			row = append(row, tct)
			if sc.name == "LEIME" {
				leimeTCT = tct
			} else if s := tct / leimeTCT; s > worst {
				worst = s
			}
		}
		row = append(row, worst)
		tbl.AddRow(row...)
	}
	fmt.Fprintln(w, "TCT (s) with LEIME offloading fixed, exit setting varied (Raspberry Pi):")
	fmt.Fprint(w, tbl.String())
	return nil
}

// fig10b reproduces the offloading ablation of Fig. 10(b): LEIME's online
// offloading vs D-only, E-only and cap_based, on a Jetson Nano across task
// arrival rates. Paper: gains grow with load — ~1.1x/1.2x at rates 5 and 20,
// ~1.8x at rate 100.
func fig10b() Experiment {
	return Experiment{
		ID:    "fig10b",
		Title: "Fig. 10(b): offloading ablation (LEIME vs D-only/E-only/cap_based) across arrival rates",
		Run:   runFig10b,
	}
}

func runFig10b(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	env := cluster.TestbedEnv(cluster.JetsonNano)
	params, _, _, err := schemeParams(scheme{strategy: exitsetting.LEIME()}, p, sigma, env)
	if err != nil {
		return err
	}
	rates := []float64{5, 20, 100}
	if quick {
		rates = rates[:2]
	}
	policies := append([]offload.Policy{offload.Lyapunov()}, offload.ClassicBaselines()...)
	header := []string{"arrival_rate"}
	for _, pol := range policies {
		header = append(header, pol.Name)
	}
	header = append(header, "mean_speedup_vs_leime")
	tbl := metrics.NewTable(header...)
	for _, rate := range rates {
		row := []any{rate}
		var leimeTCT, sum float64
		for _, pol := range policies {
			pol := pol
			res, err := sim.RunSlots(sim.SlotConfig{
				Model: params,
				Devices: []sim.DeviceSpec{{
					Device: offload.Device{
						FLOPS:        env.DeviceFLOPS,
						BandwidthBps: env.DeviceEdge.BandwidthBps,
						LatencySec:   env.DeviceEdge.LatencySec,
						ArrivalMean:  rate,
					},
					Policy: &pol,
				}},
				EdgeFLOPS:   env.EdgeFLOPS,
				CloudFLOPS:  env.CloudFLOPS,
				EdgeCloud:   env.EdgeCloud,
				TauSec:      1,
				V:           1e4,
				Slots:       200,
				WarmupSlots: 40,
				Seed:        17,
			})
			if err != nil {
				return fmt.Errorf("%s at rate %v: %w", pol.Name, rate, err)
			}
			tct := res.MeanTCT
			row = append(row, tct)
			if pol.Name == "LEIME" {
				leimeTCT = tct
			} else {
				sum += tct / leimeTCT
			}
		}
		row = append(row, sum/float64(len(policies)-1))
		tbl.AddRow(row...)
	}
	fmt.Fprintln(w, "TCT (s) with LEIME exit setting fixed, offloading varied (Jetson Nano):")
	fmt.Fprint(w, tbl.String())
	return nil
}
