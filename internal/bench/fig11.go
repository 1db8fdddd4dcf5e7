package bench

import (
	"fmt"
	"io"

	"leime/internal/cluster"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/sim"
)

// fig11 reproduces the scalability simulation of Fig. 11: average TCT as the
// number of connected (homogeneous) devices grows, for Inception v3 and
// ResNet-34. Paper: LEIME grows almost linearly and supports the most
// devices; baselines degrade much faster because their exit settings ignore
// edge load.
func fig11() Experiment {
	return Experiment{
		ID:    "fig11",
		Title: "Fig. 11: TCT vs number of connected devices (simulation, Inception v3 & ResNet-34)",
		Run:   runFig11,
	}
}

func runFig11(w io.Writer, quick bool) error {
	counts := []int{1, 5, 10, 20, 40, 80}
	if quick {
		counts = []int{1, 5, 10}
	}
	profiles := []*model.Profile{model.InceptionV3(), model.ResNet34()}
	if quick {
		profiles = profiles[:1]
	}
	schemes := paperSchemes()
	for _, p := range profiles {
		sigma, err := calibrated(p)
		if err != nil {
			return err
		}
		header := []string{"devices"}
		for _, sc := range schemes {
			header = append(header, sc.name)
		}
		tbl := metrics.NewTable(header...)
		for _, n := range counts {
			row := []any{n}
			for _, sc := range schemes {
				tct, err := fig11TCT(sc, p, sigma, n)
				if err != nil {
					return fmt.Errorf("%s with %d devices: %w", sc.name, n, err)
				}
				row = append(row, tct)
			}
			tbl.AddRow(row...)
		}
		fmt.Fprintf(w, "TCT (s) vs connected devices, %s (homogeneous Raspberry Pi devices):\n", p.Name)
		fmt.Fprint(w, tbl.String())
		fmt.Fprintln(w)
	}
	return nil
}

// fig11TCT runs the slot model with n homogeneous devices sharing the edge.
// The exit setting sees the per-device edge share (load-aware exit setting
// is exactly LEIME's advantage in this figure).
func fig11TCT(sc scheme, p *model.Profile, sigma []float64, n int) (float64, error) {
	env := cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(1 / float64(n))
	params, _, _, err := schemeParams(sc, p, sigma, env)
	if err != nil {
		return 0, err
	}
	devs := make([]sim.DeviceSpec, n)
	for i := range devs {
		policy := sc.policy
		devs[i] = sim.DeviceSpec{
			Device: offload.Device{
				FLOPS:        env.DeviceFLOPS,
				BandwidthBps: env.DeviceEdge.BandwidthBps,
				LatencySec:   env.DeviceEdge.LatencySec,
				ArrivalMean:  3,
			},
			Policy: &policy,
		}
	}
	res, err := sim.RunSlots(sim.SlotConfig{
		Model:       params,
		Devices:     devs,
		EdgeFLOPS:   cluster.EdgeDesktop.FLOPS,
		CloudFLOPS:  cluster.CloudV100.FLOPS,
		EdgeCloud:   cluster.InternetDefault,
		TauSec:      1,
		V:           1e4,
		Slots:       150,
		WarmupSlots: 30,
		Seed:        19,
	})
	if err != nil {
		return 0, err
	}
	return res.MeanTCT, nil
}
