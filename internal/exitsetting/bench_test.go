package exitsetting

import (
	"fmt"
	"math"
	"testing"

	"leime/internal/cluster"
	"leime/internal/model"
)

// benchSigma is a deterministic monotone exit-rate vector: benchmarks and
// the differential test need fixed inputs, not a calibration run.
func benchSigma(m int) []float64 {
	sigma := make([]float64, m)
	for i := range sigma {
		sigma[i] = float64(i+1) / float64(m)
	}
	return sigma
}

func benchInstanceFor(tb testing.TB, p *model.Profile) *Instance {
	tb.Helper()
	in, err := NewInstance(p, benchSigma(p.NumExits()), cluster.TestbedEnv(cluster.RaspberryPi3B))
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// uncachedCopy strips the profile's prefix-sum caches, so every cost
// evaluation pays the naive O(m) loop sums — the pre-optimization behavior.
func uncachedCopy(p *model.Profile) *model.Profile {
	return &model.Profile{Name: p.Name, Input: p.Input, InputBytes: p.InputBytes, Elements: p.Elements}
}

// naiveInstanceFor reproduces the pre-optimization cost model: a bare
// Instance (no transfer tables) over an uncached profile, so every
// evaluation re-sums layer FLOPs and recomputes transfer times.
func naiveInstanceFor(p *model.Profile) *Instance {
	return &Instance{
		Profile: uncachedCopy(p),
		Sigma:   benchSigma(p.NumExits()),
		Env:     cluster.TestbedEnv(cluster.RaspberryPi3B),
	}
}

// TestPrefixSumCostMatchesNaive is the differential test for the O(1) cost
// model: for every architecture and every admissible (e1, e2) pair, the
// prefix-sum-backed Cost/costNoExits/twoExitCost must match the naive
// loop-sum implementation to within 1e-12 relative.
func TestPrefixSumCostMatchesNaive(t *testing.T) {
	for _, p := range model.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			fast := benchInstanceFor(t, p)
			slow := naiveInstanceFor(p)
			m := p.NumExits()
			check := func(what string, got, want float64) {
				t.Helper()
				if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Errorf("%s: cached %v, naive %v", what, got, want)
				}
			}
			for e1 := 1; e1 < m-1; e1++ {
				check(fmt.Sprintf("twoExitCost(%d)", e1), fast.twoExitCost(e1), slow.twoExitCost(e1))
				for e2 := e1 + 1; e2 < m; e2++ {
					check(fmt.Sprintf("Cost(%d,%d)", e1, e2), fast.Cost(e1, e2), slow.Cost(e1, e2))
					check(fmt.Sprintf("costNoExits(%d,%d)", e1, e2), fast.costNoExits(e1, e2), slow.costNoExits(e1, e2))
				}
			}
		})
	}
}

// TestSolversAgreeOnCachedAndUncachedProfiles pins the end-to-end
// invariant: both solvers return the same setting and cost whether the
// profile carries prefix-sum caches or not.
func TestSolversAgreeOnCachedAndUncachedProfiles(t *testing.T) {
	for _, p := range model.All() {
		fast := benchInstanceFor(t, p)
		slow := naiveInstanceFor(p)
		for _, solver := range []struct {
			name string
			run  func(*Instance) Setting
		}{
			{"Exhaustive", (*Instance).Exhaustive},
			{"BranchAndBound", (*Instance).BranchAndBound},
		} {
			a, b := solver.run(fast), solver.run(slow)
			if a.E1 != b.E1 || a.E2 != b.E2 || math.Abs(a.Cost-b.Cost) > 1e-12*math.Max(1, math.Abs(b.Cost)) {
				t.Errorf("%s/%s: cached (%d,%d,%v) != naive (%d,%d,%v)",
					p.Name, solver.name, a.E1, a.E2, a.Cost, b.E1, b.E2, b.Cost)
			}
		}
	}
}

func benchOverArchs(b *testing.B, run func(*Instance) Setting) {
	for _, p := range model.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			in := benchInstanceFor(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s := run(in); s.E1 < 1 {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// BenchmarkExhaustive times the O(m^2) ground-truth solver with the O(1)
// prefix-sum cost model, per architecture.
func BenchmarkExhaustive(b *testing.B) {
	benchOverArchs(b, (*Instance).Exhaustive)
}

// BenchmarkExhaustiveNaive times the same solver with the caches stripped
// (every cost evaluation re-sums the chain, the pre-optimization O(m^3)
// behavior); the ratio to BenchmarkExhaustive is the prefix-sum payoff.
func BenchmarkExhaustiveNaive(b *testing.B) {
	for _, p := range model.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			in := naiveInstanceFor(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s := in.Exhaustive(); s.E1 < 1 {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// BenchmarkBranchAndBound times the paper's solver per architecture.
func BenchmarkBranchAndBound(b *testing.B) {
	benchOverArchs(b, (*Instance).BranchAndBound)
}

// BenchmarkCostEval times a single three-exit cost evaluation — the inner
// loop of both solvers and of every online re-solve.
func BenchmarkCostEval(b *testing.B) {
	for _, p := range model.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			in := benchInstanceFor(b, p)
			m := p.NumExits()
			e1, e2 := 1+m/4, 1+m/2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := in.Cost(e1, e2); c <= 0 {
					b.Fatal("non-positive cost")
				}
			}
		})
	}
}
