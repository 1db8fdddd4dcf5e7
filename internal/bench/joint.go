package bench

import (
	"fmt"
	"io"

	"leime/internal/cluster"
	"leime/internal/exitsetting"
	"leime/internal/metrics"
	"leime/internal/model"
)

// joint measures the extension of §III beyond the paper: optimizing the exit
// setting and the steady-state offloading ratio *jointly* instead of the
// paper's sequential pipeline (solve P0 at x=0, then let the controller pick
// x for those fixed exits). The expected-cost model is shared, so the
// comparison isolates the value of co-optimization.
func joint() Experiment {
	return Experiment{
		ID:    "ext-joint",
		Title: "Extension: joint exit-setting + offloading co-optimization vs the paper's sequential pipeline",
		Run:   runJoint,
	}
}

func runJoint(w io.Writer, quick bool) error {
	envs := []struct {
		name string
		env  cluster.Env
	}{
		{"pi/idle-edge", cluster.TestbedEnv(cluster.RaspberryPi3B)},
		{"pi/shared-edge", cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(1.0 / 6)},
		{"pi/poor-net", cluster.TestbedEnv(cluster.RaspberryPi3B).
			WithDeviceEdge(cluster.Path{BandwidthBps: cluster.Mbps(2), LatencySec: 0.1})},
		{"nano/shared-edge", cluster.TestbedEnv(cluster.JetsonNano).WithEdgeLoad(1.0 / 6)},
	}
	profiles := model.All()
	if quick {
		profiles = profiles[:2]
		envs = envs[:2]
	}
	tbl := metrics.NewTable("model", "environment",
		"seq_exits", "seq_x", "seq_tct_s",
		"joint_exits", "joint_x", "joint_tct_s", "gain_pct")
	var worstGain, meanGain float64
	rows := 0
	for _, p := range profiles {
		sigma, err := calibrated(p)
		if err != nil {
			return err
		}
		for _, e := range envs {
			in, err := exitsetting.NewInstance(p, sigma, e.env)
			if err != nil {
				return err
			}
			seq := in.SolveSequential()
			joint := in.SolveJoint()
			gain := 100 * (seq.Cost - joint.Cost) / seq.Cost
			meanGain += gain
			if gain > worstGain {
				worstGain = gain
			}
			rows++
			tbl.AddRow(p.Name, e.name,
				fmt.Sprintf("(%d,%d)", seq.E1, seq.E2), seq.Ratio, seq.Cost,
				fmt.Sprintf("(%d,%d)", joint.E1, joint.E2), joint.Ratio, joint.Cost, gain)
		}
	}
	fmt.Fprintln(w, "Sequential (paper) vs joint co-optimization, shared expected-cost model:")
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "\nmean improvement %.1f%%, best case %.1f%% — the sequential pipeline is near-\n",
		meanGain/float64(rows), worstGain)
	fmt.Fprintln(w, "optimal when block-1 stays on-device, but co-optimization finds different")
	fmt.Fprintln(w, "exits whenever high offloading makes device-centric placement stale.")
	return nil
}
