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

// fig7 reproduces the overall-performance network sweep of Fig. 7: average
// TCT of LEIME vs Neurosurgeon, Edgent and DDNN on a Raspberry Pi running
// ME-Inception v3, across bandwidths and propagation delays. Paper speedups:
// 4.4x/6.5x/18.7x under bandwidth variation and 4.2x/5.7x/14.5x under delay
// variation, with the largest gaps in poor networks (< 10 Mbps, > 100 ms).
func fig7() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "Fig. 7: TCT vs bandwidth and propagation delay, LEIME vs Neurosurgeon/Edgent/DDNN",
		Run:   runFig7,
	}
}

func runFig7(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}

	bandwidths := []float64{1, 4, 8, 16, 32, 64, 128}
	delays := []float64{0.01, 0.025, 0.05, 0.1, 0.15, 0.2}
	if quick {
		bandwidths = []float64{4, 32}
		delays = []float64{0.02, 0.15}
	}

	fmt.Fprintln(w, "TCT (s) vs bandwidth (Mbps), propagation delay 20 ms:")
	if err := fig7Sweep(w, p, sigma, "mbps", bandwidths, func(env cluster.Env, v float64) cluster.Env {
		return env.WithDeviceEdge(cluster.Path{BandwidthBps: cluster.Mbps(v), LatencySec: 0.02})
	}); err != nil {
		return err
	}

	fmt.Fprintln(w, "TCT (s) vs propagation delay (s), bandwidth 10 Mbps:")
	return fig7Sweep(w, p, sigma, "delay_s", delays, func(env cluster.Env, v float64) cluster.Env {
		return env.WithDeviceEdge(cluster.Path{BandwidthBps: cluster.Mbps(10), LatencySec: v})
	})
}

// fig7Sweep runs the four schemes across one network parameter sweep and
// prints the TCT table plus the LEIME speedup summary. The value × scheme
// grid fans out on the shared worker pool; the table is assembled from the
// gathered grid afterwards, so the output is independent of parallelism.
func fig7Sweep(w io.Writer, p *model.Profile, sigma []float64, label string, values []float64,
	modify func(cluster.Env, float64) cluster.Env) error {
	schemes := paperSchemes()
	header := []string{label}
	for _, sc := range schemes {
		header = append(header, sc.name)
	}
	tcts := make([]float64, len(values)*len(schemes))
	if err := parallelFor(len(tcts), func(k int) error {
		v, sc := values[k/len(schemes)], schemes[k%len(schemes)]
		env := modify(cluster.TestbedEnv(cluster.RaspberryPi3B), v)
		tct, err := schemeTCT(sc, p, sigma, env, fig7Workload())
		if err != nil {
			return fmt.Errorf("%s at %s=%v: %w", sc.name, label, v, err)
		}
		tcts[k] = tct
		return nil
	}); err != nil {
		return err
	}
	tbl := metrics.NewTable(header...)
	speedups := make(map[string]float64)
	for vi, v := range values {
		row := []any{v}
		var leimeTCT float64
		for si, sc := range schemes {
			tct := tcts[vi*len(schemes)+si]
			row = append(row, tct)
			if sc.name == "LEIME" {
				leimeTCT = tct
			} else {
				speedups[sc.name] += tct / leimeTCT
			}
		}
		tbl.AddRow(row...)
	}
	fmt.Fprint(w, tbl.String())
	n := float64(len(values))
	fmt.Fprintf(w, "mean speedup vs LEIME: Neurosurgeon %.1fx, Edgent %.1fx, DDNN %.1fx\n\n",
		speedups["Neurosurgeon"]/n, speedups["Edgent"]/n, speedups["DDNN"]/n)
	return nil
}

// fig7Workload is the shared single-device event-sim workload.
type workload struct {
	rate    float64
	slots   int
	warmup  int
	seed    int64
	devices int
}

func fig7Workload() workload {
	return workload{rate: 0.3, slots: 400, warmup: 50, seed: 23, devices: 1}
}

// schemeTCT measures one scheme's mean TCT in the per-task event simulator.
func schemeTCT(sc scheme, p *model.Profile, sigma []float64, env cluster.Env, wl workload) (float64, error) {
	params, _, _, err := schemeParams(sc, p, sigma, env)
	if err != nil {
		return 0, err
	}
	devs := make([]sim.DeviceSpec, wl.devices)
	for i := range devs {
		policy := sc.policy
		devs[i] = sim.DeviceSpec{
			Device: offload.Device{
				FLOPS:        env.DeviceFLOPS,
				BandwidthBps: env.DeviceEdge.BandwidthBps,
				LatencySec:   env.DeviceEdge.LatencySec,
				ArrivalMean:  wl.rate,
			},
			Policy: &policy,
		}
	}
	res, err := sim.RunEvents(sim.EventConfig{
		Model:       params,
		Devices:     devs,
		EdgeFLOPS:   env.EdgeFLOPS,
		CloudFLOPS:  env.CloudFLOPS,
		EdgeCloud:   env.EdgeCloud,
		TauSec:      1,
		V:           1e4,
		Slots:       wl.slots,
		WarmupSlots: wl.warmup,
		Seed:        wl.seed,
	})
	if err != nil {
		return 0, err
	}
	return res.TCT.Mean(), nil
}
