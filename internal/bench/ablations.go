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

// ablationV sweeps the Lyapunov penalty weight V. Theorem 3 bounds the
// delay gap by O(B/V) and the queue backlog by O(V); the experiment measures
// where the deployed controller actually sits on that trade-off. (Finding:
// with the balance-plus-corner-check decision rule, performance is nearly
// flat in V — queue stability does not depend on the drift terms.)
func ablationV() Experiment {
	return Experiment{
		ID:    "ablation-v",
		Title: "Ablation: Lyapunov penalty weight V — the O(B/V) delay / O(V) backlog trade-off of Theorem 3",
		Run:   runAblationV,
	}
}

func runAblationV(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	// A tight edge share and a rate near the system's capacity keep the
	// queues loaded enough that the delay/backlog trade-off is visible.
	env := cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(0.04)
	params, _, _, err := schemeParams(scheme{strategy: exitsetting.LEIME()}, p, sigma, env)
	if err != nil {
		return err
	}
	vs := []float64{0.1, 1, 10, 100, 1e3, 1e4}
	if quick {
		vs = []float64{1, 100, 1e4}
	}
	tbl := metrics.NewTable("V", "mean_tct_s", "mean_backlog_tasks", "final_backlog")
	for _, v := range vs {
		res, err := sim.RunSlots(sim.SlotConfig{
			Model: params,
			Devices: []sim.DeviceSpec{{Device: offload.Device{
				FLOPS:        env.DeviceFLOPS,
				BandwidthBps: env.DeviceEdge.BandwidthBps,
				LatencySec:   env.DeviceEdge.LatencySec,
				ArrivalMean:  10,
			}}},
			EdgeFLOPS:   env.EdgeFLOPS,
			CloudFLOPS:  env.CloudFLOPS,
			EdgeCloud:   env.EdgeCloud,
			TauSec:      1,
			V:           v,
			Slots:       300,
			WarmupSlots: 50,
			Seed:        41,
		})
		if err != nil {
			return fmt.Errorf("V=%v: %w", v, err)
		}
		tbl.AddRow(v, res.MeanTCT, res.PerDevice[0].Backlog.Mean(), res.FinalBacklog)
	}
	fmt.Fprintln(w, "LEIME policy, ME-Inception v3, Raspberry Pi, 4% edge share, rate 10:")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\nTheorem 3 bounds the delay gap by B/V and the backlog by O(V); measured, the")
	fmt.Fprintln(w, "controller is insensitive to V across five orders of magnitude — the balance")
	fmt.Fprintln(w, "rule with corner checks keeps queues stable on its own, so the knob has")
	fmt.Fprintln(w, "little left to trade.")
	return nil
}

// ablationAlloc compares the KKT edge-resource allocation (eq. 27) against
// uniform and demand-proportional splits on a heterogeneous fleet — the
// design choice Appendix B derives.
func ablationAlloc() Experiment {
	return Experiment{
		ID:    "ablation-alloc",
		Title: "Ablation: KKT edge allocation (eq. 27) vs uniform and demand-proportional splits",
		Run:   runAblationAlloc,
	}
}

func runAblationAlloc(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	env := cluster.TestbedEnv(cluster.RaspberryPi3B)
	params, _, _, err := schemeParams(scheme{strategy: exitsetting.LEIME()}, p, sigma, env)
	if err != nil {
		return err
	}
	// Heterogeneous fleet: busy Pis and a lightly loaded Nano.
	mkDevices := func() []sim.DeviceSpec {
		specs := []sim.DeviceSpec{
			{Device: offload.Device{FLOPS: cluster.RaspberryPi3B.FLOPS, BandwidthBps: cluster.Mbps(10), LatencySec: 0.02, ArrivalMean: 8}},
			{Device: offload.Device{FLOPS: cluster.RaspberryPi3B.FLOPS, BandwidthBps: cluster.Mbps(10), LatencySec: 0.02, ArrivalMean: 6}},
			{Device: offload.Device{FLOPS: cluster.RaspberryPi3B.FLOPS, BandwidthBps: cluster.Mbps(10), LatencySec: 0.02, ArrivalMean: 4}},
			{Device: offload.Device{FLOPS: cluster.JetsonNano.FLOPS, BandwidthBps: cluster.Mbps(20), LatencySec: 0.015, ArrivalMean: 2}},
		}
		return specs
	}

	// The slot simulator always applies the KKT allocation; emulate the
	// alternatives by overriding the shares through per-device edge FLOPS:
	// run one simulation per allocation with a single-tenant edge sized to
	// that device's share.
	allocs := map[string]func(devs []offload.Device, edge float64) ([]float64, error){
		"kkt": offload.Allocate,
		"uniform": func(devs []offload.Device, edge float64) ([]float64, error) {
			out := make([]float64, len(devs))
			for i := range out {
				out[i] = 1 / float64(len(devs))
			}
			return out, nil
		},
		"proportional": func(devs []offload.Device, edge float64) ([]float64, error) {
			var total float64
			for _, d := range devs {
				total += d.ArrivalMean
			}
			out := make([]float64, len(devs))
			for i, d := range devs {
				out[i] = d.ArrivalMean / total
			}
			return out, nil
		},
	}
	tbl := metrics.NewTable("allocation", "mean_tct_s", "worst_device_tct_s", "final_backlog")
	for _, name := range []string{"kkt", "uniform", "proportional"} {
		specs := mkDevices()
		devs := make([]offload.Device, len(specs))
		for i, sp := range specs {
			devs[i] = sp.Device
		}
		shares, err := allocs[name](devs, env.EdgeFLOPS)
		if err != nil {
			return err
		}
		// Emulate the allocation by running each device against its own
		// dedicated slice of the edge.
		var tctSum, tasks, worst, backlog float64
		for i, sp := range specs {
			res, err := sim.RunSlots(sim.SlotConfig{
				Model:       params,
				Devices:     []sim.DeviceSpec{sp},
				EdgeFLOPS:   shares[i] * env.EdgeFLOPS,
				CloudFLOPS:  env.CloudFLOPS,
				EdgeCloud:   env.EdgeCloud,
				TauSec:      1,
				V:           1e4,
				Slots:       250,
				WarmupSlots: 50,
				Seed:        int64(61 + i),
			})
			if err != nil {
				return fmt.Errorf("%s device %d: %w", name, i, err)
			}
			tctSum += res.MeanTCT * res.PerDevice[0].Arrivals
			tasks += res.PerDevice[0].Arrivals
			if res.MeanTCT > worst {
				worst = res.MeanTCT
			}
			backlog += res.FinalBacklog
		}
		tbl.AddRow(name, tctSum/tasks, worst, backlog)
	}
	fmt.Fprintln(w, "Heterogeneous fleet (3 Pis at rates 8/6/4 + 1 Nano at rate 2) sharing one edge:")
	fmt.Fprint(w, tbl.String())
	return nil
}

// ablationSolver compares the decentralized balance decision (eq. 20, O(1)
// per device) against the exact per-slot P1' optimizer (golden-section
// search) — quantifying the paper's "close-to-optimal" claim end to end.
func ablationSolver() Experiment {
	return Experiment{
		ID:    "ablation-solver",
		Title: "Ablation: decentralized balance rule vs exact per-slot optimizer (close-to-optimal gap)",
		Run:   runAblationSolver,
	}
}

func runAblationSolver(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	env := cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(0.08)
	params, _, _, err := schemeParams(scheme{strategy: exitsetting.LEIME()}, p, sigma, env)
	if err != nil {
		return err
	}
	rates := []float64{3, 6, 12}
	if quick {
		rates = rates[:2]
	}
	// V = 100 keeps the queue terms (which the balance rule ignores) visible
	// in the objective, making this a worst-case comparison for the
	// decentralized rule.
	const solverV = 100.0
	tbl := metrics.NewTable("arrival_rate", "balance_tct_s", "exact_tct_s", "gap_pct")
	for _, rate := range rates {
		run := func(pol offload.Policy) (float64, error) {
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
				V:           solverV,
				Slots:       250,
				WarmupSlots: 50,
				Seed:        29,
			})
			if err != nil {
				return 0, err
			}
			return res.MeanTCT, nil
		}
		balance, err := run(offload.Lyapunov())
		if err != nil {
			return err
		}
		exact, err := run(offload.LyapunovCentralized())
		if err != nil {
			return err
		}
		tbl.AddRow(rate, balance, exact, 100*(balance-exact)/exact)
	}
	fmt.Fprintln(w, "ME-Inception v3, Raspberry Pi, shared edge; identical workloads per row:")
	fmt.Fprint(w, tbl.String())
	return nil
}

// wildLinks extends Fig. 3 to the online setting: the uplink bandwidth
// churns while the system runs, and LEIME's per-slot controller is compared
// against every fixed ratio — none of which can be right in all regimes.
func wildLinks() Experiment {
	return Experiment{
		ID:    "wildlinks",
		Title: "Extension: bandwidth churn — online LEIME vs every fixed offloading ratio",
		Run:   runWildLinks,
	}
}

func runWildLinks(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}
	// Exit-1 as the First exit: its intermediate tensor (128 KB) dwarfs the
	// raw input (3 KB), so the optimal ratio flips hard with bandwidth —
	// x* = 0 on good WiFi (ship nothing, compute the cheap first block
	// locally), x* = 1 on bad WiFi (ship the tiny raw input instead of the
	// huge tensor).
	params, err := paramsFor(p, sigma, 1, 14, true)
	if err != nil {
		return err
	}
	// The uplink alternates between good (32 Mbps) and bad (4 Mbps) WiFi
	// every 50 slots.
	link := func(slot int) (float64, float64) {
		if (slot/50)%2 == 0 {
			return cluster.Mbps(32), 0.02
		}
		return cluster.Mbps(4), 0.05
	}
	slots := 400
	if quick {
		slots = 200
	}
	run := func(pol offload.Policy) (float64, error) {
		res, err := sim.RunSlots(sim.SlotConfig{
			Model: params,
			Devices: []sim.DeviceSpec{{
				Device: offload.Device{
					FLOPS:        cluster.RaspberryPi3B.FLOPS,
					BandwidthBps: cluster.Mbps(32),
					LatencySec:   0.02,
					ArrivalMean:  6,
				},
				Policy: &pol,
				Link:   link,
			}},
			EdgeFLOPS:   cluster.EdgeDesktop.FLOPS,
			CloudFLOPS:  cluster.CloudV100.FLOPS,
			EdgeCloud:   cluster.InternetDefault,
			TauSec:      1,
			V:           1e4,
			Slots:       slots,
			WarmupSlots: 50,
			Seed:        37,
		})
		if err != nil {
			return 0, err
		}
		return res.MeanTCT, nil
	}
	tbl := metrics.NewTable("policy", "mean_tct_s")
	leime, err := run(offload.Lyapunov())
	if err != nil {
		return err
	}
	tbl.AddRow("LEIME (online)", leime)
	bestFixed := leime * 1e9
	for _, r := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		tct, err := run(offload.FixedRatio(r))
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("fixed-%.1f", r), tct)
		if tct < bestFixed {
			bestFixed = tct
		}
	}
	fmt.Fprintln(w, "Uplink alternates 32 Mbps / 4 Mbps every 50 slots (Raspberry Pi, rate 6):")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "\nLEIME vs best fixed ratio: %.2fx\n", bestFixed/leime)
	return nil
}
