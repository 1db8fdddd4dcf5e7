package bench

import (
	"fmt"
	"io"

	"leime/internal/cluster"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/offload"
	"leime/internal/sim"
	"leime/internal/trace"
)

// fig9 reproduces the stability study of Fig. 9: average TCT over time under
// a dynamically changing task arrival rate, on the Raspberry Pi (upper) and
// the Jetson Nano (lower). Paper: LEIME shows the smallest TCT and the best
// stability; DDNN blows past the axis on the Pi (queue backlog) but not on
// the Nano; Neurosurgeon fluctuates the most.
func fig9() Experiment {
	return Experiment{
		ID:    "fig9",
		Title: "Fig. 9: TCT over time under dynamic arrival rates (stability), Pi and Nano",
		Run:   runFig9,
	}
}

// fig9Phases is the piecewise arrival-rate schedule: calm, surge, calm,
// heavier surge, calm.
func fig9Phases() []trace.Phase {
	return []trace.Phase{
		{Slots: 60, Rate: 1},
		{Slots: 60, Rate: 3},
		{Slots: 60, Rate: 1.5},
		{Slots: 60, Rate: 4.5},
		{Slots: 60, Rate: 1},
	}
}

func runFig9(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	phases := fig9Phases()
	if quick {
		phases = phases[:3]
	}
	totalSlots := 0
	for _, ph := range phases {
		totalSlots += ph.Slots
	}

	for _, dev := range []cluster.Node{cluster.RaspberryPi3B, cluster.JetsonNano} {
		env := cluster.TestbedEnv(dev)
		fmt.Fprintf(w, "Per-phase mean TCT (s) on %s (phases: ", dev.Name)
		for i, ph := range phases {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "rate %.0f", ph.Rate)
		}
		fmt.Fprintln(w, "):")

		header := []string{"scheme"}
		for i := range phases {
			header = append(header, fmt.Sprintf("phase%d", i+1))
		}
		header = append(header, "final_backlog", "stddev")
		tbl := metrics.NewTable(header...)

		// The four schemes' slot simulations are independent; fan them out
		// and add the gathered rows in scheme order.
		schemes := paperSchemes()
		rows := make([][]any, len(schemes))
		if err := parallelFor(len(schemes), func(si int) error {
			sc := schemes[si]
			params, _, _, err := schemeParams(sc, p, sigma, env)
			if err != nil {
				return err
			}
			proc, err := trace.NewPiecewise(phases, 31)
			if err != nil {
				return err
			}
			policy := sc.policy
			meanRate := proc.Mean()
			res, err := sim.RunSlots(sim.SlotConfig{
				Model: params,
				Devices: []sim.DeviceSpec{{
					Device: offload.Device{
						FLOPS:        env.DeviceFLOPS,
						BandwidthBps: env.DeviceEdge.BandwidthBps,
						LatencySec:   env.DeviceEdge.LatencySec,
						ArrivalMean:  meanRate,
					},
					Arrivals: proc,
					Policy:   &policy,
				}},
				EdgeFLOPS:   env.EdgeFLOPS,
				CloudFLOPS:  env.CloudFLOPS,
				EdgeCloud:   env.EdgeCloud,
				TauSec:      1,
				V:           1e4,
				Slots:       totalSlots,
				WarmupSlots: 5,
				Seed:        31,
			})
			if err != nil {
				return fmt.Errorf("%s on %s: %w", sc.name, dev.Name, err)
			}
			series := res.PerDevice[0].SlotTCT
			row := []any{sc.name}
			at := 0
			for _, ph := range phases {
				row = append(row, series.Window(at, at+ph.Slots))
				at += ph.Slots
			}
			rows[si] = append(row, res.FinalBacklog, res.PerDevice[0].TCT.Stddev())
			return nil
		}); err != nil {
			return err
		}
		for _, row := range rows {
			tbl.AddRow(row...)
		}
		fmt.Fprint(w, tbl.String())
		fmt.Fprintln(w)
	}
	return nil
}
