package bench

import (
	"fmt"
	"io"
	"math"

	"leime/internal/cluster"
	"leime/internal/exitsetting"
	"leime/internal/metrics"
	"leime/internal/model"
)

// fig2 reproduces the exit-setting landscapes of Fig. 2: how the optimal
// First and Second exits move with device capability, edge load, and DNN
// architecture.
func fig2() Experiment {
	return Experiment{
		ID:    "fig2",
		Title: "Fig. 2: optimal exit settings vs device capability, edge load and DNN type",
		Run:   runFig2,
	}
}

func runFig2(w io.Writer, quick bool) error {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		return err
	}

	// (a) Normalized latency vs First-exit, Pi vs Nano. Each point is the
	// best completion over Second-exit choices for that First-exit.
	fmt.Fprintln(w, "(a) normalized TCT vs First-exit (ME-Inception v3):")
	tblA := metrics.NewTable("first_exit", "raspberry_pi", "jetson_nano")
	piCurve, err := firstExitCurve(p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B))
	if err != nil {
		return err
	}
	nanoCurve, err := firstExitCurve(p, sigma, cluster.TestbedEnv(cluster.JetsonNano))
	if err != nil {
		return err
	}
	for i := range piCurve {
		tblA.AddRow(i+1, piCurve[i], nanoCurve[i])
	}
	fmt.Fprint(w, tblA.String())
	fmt.Fprintf(w, "optimal First-exit: pi=exit-%d nano=exit-%d (paper: pi exit-1, nano exit-10)\n\n",
		argminIdx(piCurve)+1, argminIdx(nanoCurve)+1)

	// (b) Normalized latency vs Second-exit under light and heavy edge load.
	fmt.Fprintln(w, "(b) normalized TCT vs Second-exit under edge load (Raspberry Pi):")
	tblB := metrics.NewTable("second_exit", "idle_edge", "loaded_edge_5pct")
	idleCurve, err := secondExitCurve(p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B))
	if err != nil {
		return err
	}
	loadedCurve, err := secondExitCurve(p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(0.05))
	if err != nil {
		return err
	}
	for i := range idleCurve {
		if math.IsInf(idleCurve[i], 1) {
			continue
		}
		tblB.AddRow(i+1, idleCurve[i], loadedCurve[i])
	}
	fmt.Fprint(w, tblB.String())
	fmt.Fprintf(w, "optimal Second-exit: idle=exit-%d loaded=exit-%d (paper: light load prefers deeper)\n\n",
		argminIdx(idleCurve)+1, argminIdx(loadedCurve)+1)

	// (c)/(d) Optimal exits per DNN type.
	fmt.Fprintln(w, "(c,d) optimal exits per DNN (Raspberry Pi testbed):")
	tblC := metrics.NewTable("model", "m", "first_exit", "second_exit", "tct_s")
	profiles := model.All()
	if quick {
		profiles = profiles[:2]
	}
	for _, pr := range profiles {
		sg, err := calibrated(pr)
		if err != nil {
			return err
		}
		in, err := exitsetting.NewInstance(pr, sg, cluster.TestbedEnv(cluster.RaspberryPi3B))
		if err != nil {
			return err
		}
		best := in.Solve()
		tblC.AddRow(pr.Name, pr.NumExits(), best.E1, best.E2, best.Cost)
	}
	fmt.Fprint(w, tblC.String())
	return nil
}

// firstExitCurve returns, per First-exit candidate, the normalized best TCT
// over Second-exit completions.
func firstExitCurve(p *model.Profile, sigma []float64, env cluster.Env) ([]float64, error) {
	in, err := exitsetting.NewInstance(p, sigma, env)
	if err != nil {
		return nil, err
	}
	m := p.NumExits()
	curve := make([]float64, m-2)
	best := math.Inf(1)
	for e1 := 1; e1 < m-1; e1++ {
		v := math.Inf(1)
		for e2 := e1 + 1; e2 < m; e2++ {
			if c := in.Cost(e1, e2); c < v {
				v = c
			}
		}
		curve[e1-1] = v
		if v < best {
			best = v
		}
	}
	for i := range curve {
		curve[i] /= best
	}
	return curve, nil
}

// secondExitCurve returns, per Second-exit candidate, the normalized best
// TCT over First-exit completions.
func secondExitCurve(p *model.Profile, sigma []float64, env cluster.Env) ([]float64, error) {
	in, err := exitsetting.NewInstance(p, sigma, env)
	if err != nil {
		return nil, err
	}
	m := p.NumExits()
	curve := make([]float64, m-1)
	best := math.Inf(1)
	for e2 := 2; e2 < m; e2++ {
		v := math.Inf(1)
		for e1 := 1; e1 < e2; e1++ {
			if c := in.Cost(e1, e2); c < v {
				v = c
			}
		}
		curve[e2-1] = v
		if v < best {
			best = v
		}
	}
	curve[0] = math.Inf(1) // exit-1 cannot be a Second exit
	for i := 1; i < len(curve); i++ {
		curve[i] /= best
	}
	return curve, nil
}

func argminIdx(v []float64) int {
	best, bestV := 0, math.Inf(1)
	for i, x := range v {
		if x < bestV {
			best, bestV = i, x
		}
	}
	return best
}
