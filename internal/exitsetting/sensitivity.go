package exitsetting

import (
	"fmt"

	"leime/internal/cluster"
	"leime/internal/model"
)

// SweepPoint is one environment of a sensitivity sweep together with its
// optimal setting.
type SweepPoint struct {
	// Label names the swept value (e.g. "8Mbps").
	Label string
	// Env is the environment at this point.
	Env cluster.Env
	// Setting is the solved optimum.
	Setting Setting
}

// sensitivity solves the exit setting across a set of environments — how
// the optimum migrates as one factor (bandwidth, latency, edge load, device
// class) changes. It is the programmatic form of the paper's Fig. 2 study.
func sensitivity(p *model.Profile, sigma []float64, points []struct {
	Label string
	Env   cluster.Env
}) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(points))
	for _, pt := range points {
		in, err := NewInstance(p, sigma, pt.Env)
		if err != nil {
			return nil, fmt.Errorf("exitsetting: point %q: %w", pt.Label, err)
		}
		s := in.Solve()
		if s.E1 < 1 {
			return nil, fmt.Errorf("exitsetting: point %q: no feasible setting", pt.Label)
		}
		out = append(out, SweepPoint{Label: pt.Label, Env: pt.Env, Setting: s})
	}
	return out, nil
}

// BandwidthSweep solves the optimal setting across device–edge bandwidths
// (Mbps), holding everything else at the base environment.
func BandwidthSweep(p *model.Profile, sigma []float64, base cluster.Env, mbps []float64) ([]SweepPoint, error) {
	points := make([]struct {
		Label string
		Env   cluster.Env
	}, 0, len(mbps))
	for _, bw := range mbps {
		points = append(points, struct {
			Label string
			Env   cluster.Env
		}{
			Label: fmt.Sprintf("%gMbps", bw),
			Env: base.WithDeviceEdge(cluster.Path{
				BandwidthBps: cluster.Mbps(bw),
				LatencySec:   base.DeviceEdge.LatencySec,
			}),
		})
	}
	return sensitivity(p, sigma, points)
}

// EdgeLoadSweep solves the optimal setting across edge shares (each share in
// (0, 1] is the fraction of the edge available to this device).
func EdgeLoadSweep(p *model.Profile, sigma []float64, base cluster.Env, shares []float64) ([]SweepPoint, error) {
	points := make([]struct {
		Label string
		Env   cluster.Env
	}, 0, len(shares))
	for _, sh := range shares {
		points = append(points, struct {
			Label string
			Env   cluster.Env
		}{
			Label: fmt.Sprintf("share=%.2f", sh),
			Env:   base.WithEdgeLoad(sh),
		})
	}
	return sensitivity(p, sigma, points)
}
