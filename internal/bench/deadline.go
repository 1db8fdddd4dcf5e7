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

// deadline extends the evaluation to the deadline requirements the paper
// lists among the wild edge's application characteristics (§II-A) but never
// measures: the fraction of tasks each scheme completes within a latency
// budget, across budgets.
func deadline() Experiment {
	return Experiment{
		ID:    "ext-deadline",
		Title: "Extension: deadline satisfaction — fraction of tasks completed within a latency budget, per scheme",
		Run:   runDeadline,
	}
}

func runDeadline(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	env := cluster.TestbedEnv(cluster.RaspberryPi3B)
	deadlines := []float64{0.1, 0.25, 0.5, 1.0}
	if quick {
		deadlines = deadlines[1:3]
	}
	schemes := paperSchemes()
	header := []string{"deadline_s"}
	for _, sc := range schemes {
		header = append(header, sc.name+"_miss_pct")
	}
	tbl := metrics.NewTable(header...)
	wl := fig7Workload()
	for _, dl := range deadlines {
		row := []any{dl}
		for _, sc := range schemes {
			params, _, _, err := schemeParams(sc, p, sigma, env)
			if err != nil {
				return err
			}
			policy := sc.policy
			res, err := sim.RunEvents(sim.EventConfig{
				Model: params,
				Devices: []sim.DeviceSpec{{
					Device: offload.Device{
						FLOPS:        env.DeviceFLOPS,
						BandwidthBps: env.DeviceEdge.BandwidthBps,
						LatencySec:   env.DeviceEdge.LatencySec,
						ArrivalMean:  wl.rate,
					},
					Policy: &policy,
				}},
				EdgeFLOPS:   env.EdgeFLOPS,
				CloudFLOPS:  env.CloudFLOPS,
				EdgeCloud:   env.EdgeCloud,
				TauSec:      1,
				V:           1e4,
				Slots:       wl.slots,
				WarmupSlots: wl.warmup,
				DeadlineSec: dl,
				Seed:        wl.seed,
			})
			if err != nil {
				return fmt.Errorf("%s at deadline %v: %w", sc.name, dl, err)
			}
			row = append(row, 100*float64(res.DeadlineMisses)/float64(res.TCT.Count()))
		}
		tbl.AddRow(row...)
	}
	fmt.Fprintln(w, "Deadline miss rate (%), ME-Inception v3 on a Raspberry Pi (rate 0.3/slot):")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nEarly exits turn latency budgets into soft guarantees: most of LEIME's")
	fmt.Fprintln(w, "traffic finishes at the First/Second exit, far inside tight deadlines that")
	fmt.Fprintln(w, "the no-early-exit baselines structurally cannot meet.")
	return nil
}
