package exitsetting

import (
	"fmt"
	"sort"
)

// Strategy is a named exit-setting policy: given a cost-model instance it
// returns the (First, Second) exits. Every baseline in the paper's evaluation
// is expressed as a Strategy so experiment harnesses can sweep them.
type Strategy struct {
	// Name is the scheme name as used in the paper's figures.
	Name string
	// UsesEarlyExit is false only for Neurosurgeon, which keeps the LEIME
	// partition points but never exits early (sigma_1 = sigma_2 = 0).
	UsesEarlyExit bool
	// Select picks the exits.
	Select func(in *Instance) (e1, e2 int, err error)
}

// LEIME returns the paper's strategy: the branch-and-bound optimal setting.
func LEIME() Strategy {
	return Strategy{
		Name:          "LEIME",
		UsesEarlyExit: true,
		Select: func(in *Instance) (int, int, error) {
			s := in.BranchAndBound()
			if s.E1 < 1 {
				return 0, 0, fmt.Errorf("exitsetting: no feasible combination for %s", in.Profile.Name)
			}
			return s.E1, s.E2, nil
		},
	}
}

// Neurosurgeon returns the partition-only baseline: the DNN has no early
// exits, while the partition positions are the same as LEIME's (§IV-A). Its
// cost must be evaluated with sigma_1 = sigma_2 = 0.
func Neurosurgeon() Strategy {
	s := LEIME()
	s.Name = "Neurosurgeon"
	s.UsesEarlyExit = false
	return s
}

// DDNN returns the DDNN-style baseline: exits are set at the layers with a
// smaller amount of intermediate data and a higher exit probability (§IV-A);
// candidates are ranked by exit probability per transmitted byte and the two
// best-ranked positions are used in depth order.
func DDNN() Strategy {
	return Strategy{
		Name:          "DDNN",
		UsesEarlyExit: true,
		Select: func(in *Instance) (int, int, error) {
			m := in.Profile.NumExits()
			type cand struct {
				idx   int
				score float64
			}
			cands := make([]cand, 0, m-2)
			for i := 1; i < m; i++ {
				cands = append(cands, cand{idx: i, score: in.Sigma[i-1] / in.Profile.DataBytes(i)})
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
			e1, e2 := cands[0].idx, cands[1].idx
			if e1 > e2 {
				e1, e2 = e2, e1
			}
			return e1, e2, nil
		},
	}
}

// Edgent returns the Edgent-style baseline: exits are intuitively set at the
// positions where the intermediate data size is the smallest (§IV-A).
func Edgent() Strategy {
	s := minTranSelect("Edgent")
	return s
}

// MinTran returns the ablation baseline of Fig. 10(a) that minimizes
// transmission: identical placement rule to Edgent.
func MinTran() Strategy { return minTranSelect("min_tran") }

func minTranSelect(name string) Strategy {
	return Strategy{
		Name:          name,
		UsesEarlyExit: true,
		Select: func(in *Instance) (int, int, error) {
			m := in.Profile.NumExits()
			type cand struct {
				idx   int
				bytes float64
			}
			cands := make([]cand, 0, m-2)
			for i := 1; i < m; i++ {
				cands = append(cands, cand{idx: i, bytes: in.Profile.DataBytes(i)})
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].bytes < cands[b].bytes })
			e1, e2 := cands[0].idx, cands[1].idx
			if e1 > e2 {
				e1, e2 = e2, e1
			}
			return e1, e2, nil
		},
	}
}

// MinComp returns the ablation baseline of Fig. 10(a) that minimizes added
// computation: the two exits whose classifiers are cheapest (fewest exit
// FLOPs), in depth order.
func MinComp() Strategy {
	return Strategy{
		Name:          "min_comp",
		UsesEarlyExit: true,
		Select: func(in *Instance) (int, int, error) {
			m := in.Profile.NumExits()
			type cand struct {
				idx   int
				flops float64
			}
			cands := make([]cand, 0, m-2)
			for i := 1; i < m; i++ {
				cands = append(cands, cand{idx: i, flops: in.Profile.ExitClassifierFLOPs(i)})
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].flops < cands[b].flops })
			e1, e2 := cands[0].idx, cands[1].idx
			if e1 > e2 {
				e1, e2 = e2, e1
			}
			return e1, e2, nil
		},
	}
}

// Mean returns the ablation baseline of Fig. 10(a) that divides the chain
// evenly: exits at one third and two thirds of the depth.
func Mean() Strategy {
	return Strategy{
		Name:          "mean",
		UsesEarlyExit: true,
		Select: func(in *Instance) (int, int, error) {
			m := in.Profile.NumExits()
			e1 := m / 3
			if e1 < 1 {
				e1 = 1
			}
			e2 := 2 * m / 3
			if e2 <= e1 {
				e2 = e1 + 1
			}
			if e2 >= m {
				return 0, 0, fmt.Errorf("exitsetting: chain too short for mean division (m=%d)", m)
			}
			return e1, e2, nil
		},
	}
}

// EvalStrategy applies the strategy to the instance and returns the exit
// choice together with its expected completion time under the instance's
// cost model. Neurosurgeon's cost is evaluated with early exits disabled.
func EvalStrategy(in *Instance, s Strategy) (Setting, error) {
	e1, e2, err := s.Select(in)
	if err != nil {
		return Setting{}, fmt.Errorf("exitsetting: strategy %s: %w", s.Name, err)
	}
	out := Setting{E1: e1, E2: e2, E3: in.Profile.NumExits()}
	if s.UsesEarlyExit {
		out.Cost = in.Cost(e1, e2)
		return out, nil
	}
	out.Cost = in.costNoExits(e1, e2)
	return out, nil
}

// Baselines returns every comparison strategy of the paper's evaluation, in
// presentation order: the three end-to-end baselines (§IV-A) followed by the
// three exit-setting ablations (Fig. 10(a)).
func Baselines() []Strategy {
	return []Strategy{Neurosurgeon(), Edgent(), DDNN(), MinComp(), MinTran(), Mean()}
}
