package exitsetting

import "math"

// costWithRatio extends the P0 cost model with a steady-state offloading
// ratio: a fraction x of tasks ships its raw input to the edge and runs the
// first block there, the rest runs it on the device. P0 is the x = 0 special
// case (the paper solves exit setting assuming device-side first blocks and
// lets the online controller pick x afterwards).
//
//	T(E, x) = (1-x) * t1_dev + x * (upload_d0 + t1_edge)
//	        + (1-sigma1) * (t2_edge + (1-x) * transfer_d1)
//	        + (1-sigma2) * (transfer_d2 + t3_cloud)
//
// Offloaded survivors of the First exit are already at the edge, so only
// locally launched survivors pay the d1 transfer.
func (in *Instance) costWithRatio(e1, e2 int, x float64) float64 {
	p, env := in.Profile, in.Env
	m := p.NumExits()
	s1, s2 := in.Sigma[e1-1], in.Sigma[e2-1]

	t1dev := (p.RangeFLOPs(0, e1) + p.ExitClassifierFLOPs(e1)) / env.DeviceFLOPS
	t1edge := (p.RangeFLOPs(0, e1) + p.ExitClassifierFLOPs(e1)) / env.EdgeFLOPS
	upload := env.DeviceEdge.TransferSeconds(p.DataBytes(0))
	t2edge := (p.RangeFLOPs(e1, e2) + p.ExitClassifierFLOPs(e2)) / env.EdgeFLOPS
	d1 := env.DeviceEdge.TransferSeconds(p.DataBytes(e1))
	t3cloud := (p.RangeFLOPs(e2, m) + p.ExitClassifierFLOPs(m)) / env.CloudFLOPS
	d2 := env.EdgeCloud.TransferSeconds(p.DataBytes(e2))

	return (1-x)*t1dev + x*(upload+t1edge) +
		(1-s1)*(t2edge+(1-x)*d1) +
		(1-s2)*(d2+t3cloud)
}

// JointSetting is a jointly optimized (exit combination, offloading ratio).
type JointSetting struct {
	// E1, E2, E3 are the chosen 1-based exits.
	E1, E2, E3 int
	// Ratio is the steady-state offloading ratio.
	Ratio float64
	// Cost is T(E, x) at the optimum.
	Cost float64
}

// jointRatios is the ratio grid SolveJoint searches.
var jointRatios = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// SolveJoint minimizes T(E, x) over both the exit combination and the
// offloading ratio — an extension beyond the paper, which optimizes the two
// sequentially (P0 first at x=0, then the online controller picks x for the
// fixed exits). Joint optimization can only improve on the sequential
// result; the ext-joint experiment measures by how much.
func (in *Instance) SolveJoint() JointSetting {
	m := in.Profile.NumExits()
	best := JointSetting{E1: -1, E3: m, Cost: math.Inf(1)}
	for _, x := range jointRatios {
		for e1 := 1; e1 < m-1; e1++ {
			for e2 := e1 + 1; e2 < m; e2++ {
				if c := in.costWithRatio(e1, e2, x); c < best.Cost {
					best = JointSetting{E1: e1, E2: e2, E3: m, Ratio: x, Cost: c}
				}
			}
		}
	}
	return best
}

// SolveSequential reproduces the paper's two-step pipeline under the same
// extended cost model: solve P0 at x = 0, then pick the best ratio for the
// chosen exits. Its cost upper-bounds SolveJoint's.
func (in *Instance) SolveSequential() JointSetting {
	base := in.BranchAndBound()
	out := JointSetting{E1: base.E1, E2: base.E2, E3: base.E3, Cost: math.Inf(1)}
	for _, x := range jointRatios {
		if c := in.costWithRatio(base.E1, base.E2, x); c < out.Cost {
			out.Cost, out.Ratio = c, x
		}
	}
	return out
}
