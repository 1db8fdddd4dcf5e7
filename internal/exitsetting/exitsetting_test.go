package exitsetting

import (
	"math"
	"math/rand"
	"testing"

	"leime/internal/cluster"
	"leime/internal/confidence"
	"leime/internal/dataset"
	"leime/internal/model"
)

// randomProfile builds a synthetic chain with m elements whose FLOPs and
// tensor shapes are random but realistic (layer FLOPs dominate classifier
// FLOPs, as in every real CNN).
func randomProfile(rng *rand.Rand, m int) *model.Profile {
	p := &model.Profile{
		Name:       "synthetic",
		Input:      model.Shape{H: 32, W: 32, C: 3},
		InputBytes: model.RawInputBytes,
	}
	h, w := 32, 32
	for i := 0; i < m; i++ {
		c := 8 << rng.Intn(6) // 8..256 channels
		if rng.Float64() < 0.3 && h > 4 {
			h /= 2
			w /= 2
		}
		p.Elements = append(p.Elements, model.Element{
			Name:  "synthetic",
			FLOPs: 1e6 + rng.Float64()*5e8,
			Out:   model.Shape{H: h, W: w, C: c},
		})
	}
	return p
}

// randomSigma builds a strictly increasing exit-rate vector ending at 1.
func randomSigma(rng *rand.Rand, m int) []float64 {
	sigma := make([]float64, m)
	total := 0.0
	for i := range sigma {
		total += rng.Float64() + 0.01
		sigma[i] = total
	}
	for i := range sigma {
		sigma[i] /= total
	}
	sigma[m-1] = 1
	return sigma
}

func randomEnv(rng *rand.Rand) cluster.Env {
	return cluster.Env{
		DeviceFLOPS: 1e8 * math.Pow(10, 2*rng.Float64()),
		EdgeFLOPS:   1e9 * math.Pow(10, 2*rng.Float64()),
		CloudFLOPS:  1e11 * math.Pow(10, 2*rng.Float64()),
		DeviceEdge: cluster.Path{
			BandwidthBps: cluster.Mbps(1 + 99*rng.Float64()),
			LatencySec:   0.2 * rng.Float64(),
		},
		EdgeCloud: cluster.Path{
			BandwidthBps: cluster.Mbps(10 + 190*rng.Float64()),
			LatencySec:   0.1 * rng.Float64(),
		},
	}
}

func mustInstance(t *testing.T, p *model.Profile, sigma []float64, env cluster.Env) *Instance {
	t.Helper()
	in, err := NewInstance(p, sigma, env)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

func TestNewInstanceValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProfile(rng, 10)
	env := cluster.TestbedEnv(cluster.RaspberryPi3B)
	good := randomSigma(rng, 10)
	if _, err := NewInstance(p, good, env); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := append([]float64(nil), good...)
	bad[5], bad[6] = bad[6], bad[5] // break monotonicity
	if _, err := NewInstance(p, bad, env); err == nil {
		t.Error("non-monotone sigma accepted")
	}
	short := good[:5]
	if _, err := NewInstance(p, short, env); err == nil {
		t.Error("short sigma accepted")
	}
	notOne := append([]float64(nil), good...)
	notOne[9] = 0.9
	if _, err := NewInstance(p, notOne, env); err == nil {
		t.Error("sigma_m != 1 accepted")
	}
	if _, err := NewInstance(p, good, cluster.Env{}); err == nil {
		t.Error("zero environment accepted")
	}
}

func TestCostMatchesHandComputation(t *testing.T) {
	// Tiny 3-element chain with round numbers, checked against eqs. 1–4 by
	// hand.
	p := &model.Profile{
		Name:       "tiny",
		Input:      model.Shape{H: 1, W: 1, C: 1},
		InputBytes: 1000,
		Elements: []model.Element{
			{Name: "l1", FLOPs: 1e9, Out: model.Shape{H: 10, W: 10, C: 10}}, // 4000 B
			{Name: "l2", FLOPs: 2e9, Out: model.Shape{H: 5, W: 5, C: 20}},   // 2000 B
			{Name: "l3", FLOPs: 4e9, Out: model.Shape{H: 1, W: 1, C: 10}},   // 40 B
		},
	}
	env := cluster.Env{
		DeviceFLOPS: 1e9, EdgeFLOPS: 1e10, CloudFLOPS: 1e11,
		DeviceEdge: cluster.Path{BandwidthBps: 8e6, LatencySec: 0.01}, // 1 MB/s
		EdgeCloud:  cluster.Path{BandwidthBps: 8e7, LatencySec: 0.02}, // 10 MB/s
	}
	sigma := []float64{0.4, 0.7, 1.0}
	in := mustInstance(t, p, sigma, env)

	x1 := model.ExitFLOPs(p.Elements[0].Out)
	x2 := model.ExitFLOPs(p.Elements[1].Out)
	x3 := model.ExitFLOPs(p.Elements[2].Out)
	td := (1e9 + x1) / 1e9
	te := (2e9+x2)/1e10 + 4000/1e6 + 0.01
	tc := (4e9+x3)/1e11 + 2000/1e7 + 0.02
	want := (td + te + tc) - (0.4*te + 0.7*tc)
	if got := in.Cost(1, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost(1,2) = %v, want %v", got, want)
	}

	// Partition-only cost: no exit classifiers except the final one, no
	// early-exit savings.
	wantNoExit := 1e9/1e9 + (2e9/1e10 + 4000/1e6 + 0.01) + ((4e9+x3)/1e11 + 2000/1e7 + 0.02)
	if got := in.costNoExits(1, 2); math.Abs(got-wantNoExit) > 1e-12 {
		t.Errorf("costNoExits(1,2) = %v, want %v", got, wantNoExit)
	}
}

func TestBranchAndBoundMatchesExhaustiveOnPaperModels(t *testing.T) {
	ds, err := dataset.Generate(dataset.CIFAR10Like, 800, 3)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	envs := []cluster.Env{
		cluster.TestbedEnv(cluster.RaspberryPi3B),
		cluster.TestbedEnv(cluster.JetsonNano),
		cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(0.1),
		cluster.TestbedEnv(cluster.JetsonNano).WithDeviceEdge(cluster.Path{BandwidthBps: cluster.Mbps(1), LatencySec: 0.2}),
	}
	for _, p := range model.All() {
		_, _, sigma, err := confidence.Calibrated(p, ds, 42)
		if err != nil {
			t.Fatalf("Calibrated(%s): %v", p.Name, err)
		}
		for ei, env := range envs {
			in := mustInstance(t, p, sigma, env)
			ex := in.Exhaustive()
			bb := in.BranchAndBound()
			if math.Abs(ex.Cost-bb.Cost) > 1e-12*math.Abs(ex.Cost) {
				t.Errorf("%s env %d: BnB cost %v (exits %d,%d) != exhaustive %v (exits %d,%d)",
					p.Name, ei, bb.Cost, bb.E1, bb.E2, ex.Cost, ex.E1, ex.E2)
			}
		}
	}
}

func TestBranchAndBoundMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 300; trial++ {
		m := 4 + rng.Intn(30)
		p := randomProfile(rng, m)
		sigma := randomSigma(rng, m)
		env := randomEnv(rng)
		in := mustInstance(t, p, sigma, env)
		ex := in.Exhaustive()
		bb := in.BranchAndBound()
		if math.Abs(ex.Cost-bb.Cost) > 1e-9*math.Abs(ex.Cost) {
			t.Fatalf("trial %d (m=%d): BnB cost %v (exits %d,%d) != exhaustive %v (exits %d,%d)",
				trial, m, bb.Cost, bb.E1, bb.E2, ex.Cost, ex.E1, ex.E2)
		}
	}
}

func TestBranchAndBoundCheaperThanExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var bbTotal, exTotal int
	for trial := 0; trial < 200; trial++ {
		m := 10 + rng.Intn(40)
		in := mustInstance(t, randomProfile(rng, m), randomSigma(rng, m), randomEnv(rng))
		bbTotal += in.BranchAndBound().Evals
		exTotal += in.Exhaustive().Evals
	}
	if bbTotal >= exTotal {
		t.Errorf("branch-and-bound did %d evals, exhaustive %d; pruning ineffective", bbTotal, exTotal)
	}
}

func TestBranchAndBoundComplexityScaling(t *testing.T) {
	// Theorem 2: average complexity O(m ln m). Check mean evaluation counts
	// grow sub-quadratically: evals(4m)/evals(m) should be far below the
	// 16x a quadratic algorithm would show.
	rng := rand.New(rand.NewSource(5))
	meanEvals := func(m, trials int) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			in := mustInstance(t, randomProfile(rng, m), randomSigma(rng, m), randomEnv(rng))
			sum += float64(in.BranchAndBound().Evals)
		}
		return sum / float64(trials)
	}
	small := meanEvals(25, 60)
	large := meanEvals(100, 60)
	ratio := large / small
	if ratio > 9 { // m ln m predicts ~5.3x, quadratic predicts 16x
		t.Errorf("eval growth ratio %v for 4x larger m suggests super-(m ln m) scaling (small=%v, large=%v)", ratio, small, large)
	}
}

func TestTheorem1Dominance(t *testing.T) {
	// Whenever T2(i1) <= T2(i2) with i1 < i2, every completed combination
	// rooted at i1 must cost no more than the same completion rooted at i2.
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		m := 6 + rng.Intn(20)
		in := mustInstance(t, randomProfile(rng, m), randomSigma(rng, m), randomEnv(rng))
		for i1 := 1; i1 < m-1; i1++ {
			for i2 := i1 + 1; i2 < m-1; i2++ {
				if in.twoExitCost(i1) > in.twoExitCost(i2) {
					continue
				}
				for j := i2 + 1; j < m; j++ {
					if in.Cost(i1, j) > in.Cost(i2, j)+1e-9 {
						t.Fatalf("Theorem 1 violated: m=%d T2(%d)<=T2(%d) but T(%d,%d)=%v > T(%d,%d)=%v",
							m, i1, i2, i1, j, in.Cost(i1, j), i2, j, in.Cost(i2, j))
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("dominance premise never held; test vacuous")
	}
}

func TestPaperShapePiPrefersShallowNanoDeep(t *testing.T) {
	// Fig. 2(a): on a Raspberry Pi the optimal First-exit is shallow (the
	// device can barely compute), on a Jetson Nano it is deeper.
	ds, _ := dataset.Generate(dataset.CIFAR10Like, 800, 3)
	p := model.InceptionV3()
	_, _, sigma, err := confidence.Calibrated(p, ds, 42)
	if err != nil {
		t.Fatalf("Calibrated: %v", err)
	}
	pi := mustInstance(t, p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B)).Solve()
	nano := mustInstance(t, p, sigma, cluster.TestbedEnv(cluster.JetsonNano)).Solve()
	if pi.E1 > nano.E1 {
		t.Errorf("Pi First-exit (%d) should be no deeper than Nano's (%d)", pi.E1, nano.E1)
	}
}

func TestPaperShapeLoadedEdgePrefersShallowerSecondExit(t *testing.T) {
	// Fig. 2(b): a heavily loaded edge pushes the optimal Second-exit
	// shallower (offload less work to the edge).
	ds, _ := dataset.Generate(dataset.CIFAR10Like, 800, 3)
	p := model.InceptionV3()
	_, _, sigma, err := confidence.Calibrated(p, ds, 42)
	if err != nil {
		t.Fatalf("Calibrated: %v", err)
	}
	idle := mustInstance(t, p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B)).Solve()
	loaded := mustInstance(t, p, sigma, cluster.TestbedEnv(cluster.RaspberryPi3B).WithEdgeLoad(0.02)).Solve()
	if loaded.E2 > idle.E2 {
		t.Errorf("loaded edge Second-exit (%d) should be no deeper than idle edge's (%d)", loaded.E2, idle.E2)
	}
}
