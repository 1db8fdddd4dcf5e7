// Package bench regenerates every table and figure of the paper's
// evaluation: each experiment builds the workload, sweeps the paper's
// parameter ranges, runs LEIME and the baselines on the simulators, and
// prints the rows/series the paper reports. Absolute numbers come from a
// simulator with paper-calibrated constants, so the reproduction targets are
// the *shapes*: orderings, speedup factors and crossovers.
package bench

import (
	"fmt"
	"io"
	"sort"

	"leime/internal/cluster"
	"leime/internal/confidence"
	"leime/internal/dataset"
	"leime/internal/exitsetting"
	"leime/internal/model"
	"leime/internal/offload"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the figure/section identifier (e.g. "fig7", "motivation").
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment and writes its table(s). quick shrinks
	// sweeps for use inside testing benchmarks.
	Run func(w io.Writer, quick bool) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		motivation(),
		fig2(),
		fig3(),
		fig6(),
		fig7(),
		fig8(),
		fig9(),
		fig10a(),
		fig10b(),
		fig11(),
		ablationV(),
		ablationAlloc(),
		ablationSolver(),
		wildLinks(),
		deadline(),
		joint(),
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	all := All()
	for _, e := range all {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(all))
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// calibSeed and calibSize fix the shared calibration workload so every
// experiment sees the same exit rates.
const (
	calibSeed = 42
	calibSize = 1200
)

// calibrated returns the profile's sigma vector on the standard workload.
func calibrated(p *model.Profile) ([]float64, error) {
	ds, err := dataset.Generate(dataset.CIFAR10Like, calibSize, calibSeed)
	if err != nil {
		return nil, err
	}
	_, _, sigma, err := confidence.Calibrated(p, ds, calibSeed)
	return sigma, err
}

// paramsFor builds the deployed ME-DNN parameters for an exit choice.
// earlyExit=false models Neurosurgeon: same cut points, no early exits and
// no added classifiers.
func paramsFor(p *model.Profile, sigma []float64, e1, e2 int, earlyExit bool) (offload.ModelParams, error) {
	mednn, err := model.NewMEDNN(p, e1, e2, sigma)
	if err != nil {
		return offload.ModelParams{}, err
	}
	out := offload.ModelParams{
		Mu:    mednn.BlockFLOPs(),
		D:     mednn.DataBytes(),
		Sigma: mednn.Sigma,
	}
	if !earlyExit {
		m := p.NumExits()
		out.Mu = [3]float64{
			p.RangeFLOPs(0, e1),
			p.RangeFLOPs(e1, e2),
			p.RangeFLOPs(e2, m) + p.ExitClassifierFLOPs(m),
		}
		out.Sigma = [3]float64{0, 0, 1}
	}
	return out, nil
}

// scheme is one end-to-end comparison point: an exit-setting strategy plus
// an offloading policy.
type scheme struct {
	name     string
	strategy exitsetting.Strategy
	policy   offload.Policy
}

// paperSchemes returns the four end-to-end schemes of Figs. 7–9: LEIME with
// its online offloading, and the three baselines with offloading fixed to 0
// (§IV-A: "the offloading ratios of benchmarks are fixed to 0").
func paperSchemes() []scheme {
	return []scheme{
		{name: "LEIME", strategy: exitsetting.LEIME(), policy: offload.Lyapunov()},
		{name: "Neurosurgeon", strategy: exitsetting.Neurosurgeon(), policy: offload.FixedRatio(0)},
		{name: "Edgent", strategy: exitsetting.Edgent(), policy: offload.FixedRatio(0)},
		{name: "DDNN", strategy: exitsetting.DDNN(), policy: offload.FixedRatio(0)},
	}
}

// schemeParams resolves a scheme's exits and deployed parameters for one
// profile/environment.
func schemeParams(sc scheme, p *model.Profile, sigma []float64, env cluster.Env) (offload.ModelParams, int, int, error) {
	in, err := exitsetting.NewInstance(p, sigma, env)
	if err != nil {
		return offload.ModelParams{}, 0, 0, err
	}
	e1, e2, err := sc.strategy.Select(in)
	if err != nil {
		return offload.ModelParams{}, 0, 0, err
	}
	params, err := paramsFor(p, sigma, e1, e2, sc.strategy.UsesEarlyExit)
	return params, e1, e2, err
}
