package partition

import (
	"errors"
	"math"
	"testing"

	"leime/internal/model"
)

// testNet builds a resnet-34 MEDNN with the given exits and cumulative exit
// probabilities at them.
func testNet(t *testing.T, e1, e2 int, s1, s2 float64) *model.MEDNN {
	t.Helper()
	p := model.ResNet34()
	m := p.NumExits()
	sigma := make([]float64, m)
	for i := range sigma {
		switch {
		case i+1 >= m:
			sigma[i] = 1
		case i+1 >= e2:
			sigma[i] = s2
		case i+1 >= e1:
			sigma[i] = s1
		}
	}
	n, err := model.NewMEDNN(p, e1, e2, sigma)
	if err != nil {
		t.Fatalf("NewMEDNN: %v", err)
	}
	return n
}

// naiveClassLatency walks the chain layer by layer for one exit class —
// an O(m) oracle sharing no code with the prefix-sum DP. Rate must be zero.
func naiveClassLatency(cfg Config, cuts []int, class int) float64 {
	p := cfg.Net.Profile
	exits := [3]int{cfg.Net.E1, cfg.Net.E2, cfg.Net.E3}
	target := exits[class-1]
	t := cfg.Chain.Hops[0].delaySec(p.DataBytes(0))
	lo := 0
	for j, hi := range cuts {
		if j > 0 {
			t += cfg.Chain.Hops[j].delaySec(p.DataBytes(lo))
		}
		for l := lo + 1; l <= hi && l <= target; l++ {
			t += p.LayerFLOPs(l) / cfg.Chain.Workers[j].FLOPS
			for e := 0; e < class; e++ {
				if exits[e] == l {
					t += p.ExitClassifierFLOPs(l) / cfg.Chain.Workers[j].FLOPS
				}
			}
		}
		if target <= hi {
			return t
		}
		lo = hi
	}
	return t
}

func naiveExpected(cfg Config, cuts []int) float64 {
	s := cfg.Net.Sigma
	probs := [3]float64{s[0], s[1] - s[0], 1 - s[1]}
	var sum float64
	for c := 1; c <= 3; c++ {
		sum += probs[c-1] * naiveClassLatency(cfg, cuts, c)
	}
	return sum
}

// enumerate visits every non-decreasing cut vector of the given length
// ending at m.
func enumerate(m, stages int, visit func(cuts []int)) {
	cuts := make([]int, stages)
	var rec func(j, lo int)
	rec = func(j, lo int) {
		if j == stages-1 {
			cuts[j] = m
			visit(cuts)
			return
		}
		for k := lo; k <= m; k++ {
			cuts[j] = k
			rec(j+1, k)
		}
	}
	rec(0, 0)
	_ = cuts
}

func TestEvaluateMatchesNaiveOracle(t *testing.T) {
	net := testNet(t, 5, 11, 0.35, 0.75)
	cfg := Config{
		Net: net,
		Chain: Chain{
			Workers: []Worker{{FLOPS: 1.5e9}, {FLOPS: 2e9}, {FLOPS: 1e9}},
			Hops: []Hop{
				{BandwidthBps: 20e6, LatencySec: 0.02},
				{BandwidthBps: 100e6, LatencySec: 0.002},
				{BandwidthBps: 100e6, LatencySec: 0.002},
			},
		},
	}
	m := net.Profile.NumExits()
	enumerate(m, 3, func(cuts []int) {
		plan, err := Evaluate(cfg, cuts)
		if err != nil {
			t.Fatalf("Evaluate(%v): %v", cuts, err)
		}
		for c := 1; c <= 3; c++ {
			want := naiveClassLatency(cfg, cuts, c)
			got := plan.ClassLatencySec[c-1]
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("cuts %v class %d: got %.12g want %.12g", cuts, c, got, want)
			}
		}
		if want := naiveExpected(cfg, cuts); math.Abs(plan.ExpectedLatencySec-want) > 1e-9 {
			t.Fatalf("cuts %v expected: got %.12g want %.12g", cuts, plan.ExpectedLatencySec, want)
		}
	})
}

func TestSolveMatchesBruteForce(t *testing.T) {
	net := testNet(t, 4, 10, 0.3, 0.7)
	for _, rate := range []float64{0, 1.5} {
		cfg := Config{
			Net:         net,
			ArrivalRate: rate,
			Chain: Chain{
				Workers: []Worker{{FLOPS: 1.2e9}, {FLOPS: 1.2e9}, {FLOPS: 1.2e9}},
				Hops: []Hop{
					{BandwidthBps: 40e6, LatencySec: 0.01},
					{BandwidthBps: 200e6, LatencySec: 0.001},
					{BandwidthBps: 200e6, LatencySec: 0.001},
				},
			},
		}
		best := math.Inf(1)
		enumerate(net.Profile.NumExits(), 3, func(cuts []int) {
			plan, err := Evaluate(cfg, cuts)
			if err != nil {
				return // saturated/infeasible cut
			}
			if plan.ExpectedLatencySec < best {
				best = plan.ExpectedLatencySec
			}
		})
		plan, err := Solve(cfg)
		if err != nil {
			t.Fatalf("rate %v: Solve: %v", rate, err)
		}
		if math.Abs(plan.ExpectedLatencySec-best) > 1e-9*best {
			t.Fatalf("rate %v: solver %.12g, brute force %.12g (cuts %v)",
				rate, plan.ExpectedLatencySec, best, plan.Cuts)
		}
	}
}

func TestSolveIsDeterministic(t *testing.T) {
	net := testNet(t, 5, 11, 0.4, 0.8)
	cfg := Config{
		Net:         net,
		ArrivalRate: 2,
		Chain: Chain{
			Workers: []Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 1.5e9}},
			Hops: []Hop{
				{BandwidthBps: 20e6, LatencySec: 0.02},
				{BandwidthBps: 100e6, LatencySec: 0.002},
				{BandwidthBps: 100e6, LatencySec: 0.002},
			},
		},
	}
	first, err := Solve(cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := 0; i < 5; i++ {
		again, err := Solve(cfg)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if len(again.Cuts) != len(first.Cuts) {
			t.Fatalf("run %d: cuts %v != %v", i, again.Cuts, first.Cuts)
		}
		for j := range again.Cuts {
			if again.Cuts[j] != first.Cuts[j] {
				t.Fatalf("run %d: cuts %v != %v", i, again.Cuts, first.Cuts)
			}
		}
		if again.ExpectedLatencySec != first.ExpectedLatencySec {
			t.Fatalf("run %d: latency %v != %v", i, again.ExpectedLatencySec, first.ExpectedLatencySec)
		}
	}
}

func TestCapForcesSplit(t *testing.T) {
	net := testNet(t, 5, 11, 0.4, 0.8)
	total := net.Profile.TotalFLOPs()
	cap := total * 0.45 // no single worker can host the backbone
	chain := Chain{
		Workers: []Worker{
			{FLOPS: 1.5e9, CapFLOPs: cap},
			{FLOPS: 1.5e9, CapFLOPs: cap},
			{FLOPS: 1.5e9, CapFLOPs: cap},
		},
		Hops: []Hop{
			{BandwidthBps: 20e6, LatencySec: 0.02},
			{BandwidthBps: 100e6, LatencySec: 0.002},
			{BandwidthBps: 100e6, LatencySec: 0.002},
		},
	}
	cfg := Config{Net: net, Chain: chain}
	plan, err := Solve(cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(plan.Stages) < 2 {
		t.Fatalf("cap %.3g of total %.3g should force a split, got %d stage(s)", cap, total, len(plan.Stages))
	}
	if _, err := SingleWorker(cfg); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SingleWorker under cap: err = %v, want ErrInfeasible", err)
	}
}

func TestLoadForcesPipelining(t *testing.T) {
	net := testNet(t, 5, 11, 0.4, 0.8)
	chain := Chain{
		Workers: []Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 1.5e9}},
		Hops: []Hop{
			{BandwidthBps: 20e6, LatencySec: 0.02},
			{BandwidthBps: 200e6, LatencySec: 0.001},
			{BandwidthBps: 200e6, LatencySec: 0.001},
		},
	}
	// Unloaded, the best single-task plan is one stage (no hop costs).
	idle, err := Solve(Config{Net: net, Chain: chain})
	if err != nil {
		t.Fatalf("Solve idle: %v", err)
	}
	if len(idle.Stages) != 1 {
		t.Fatalf("idle solve used %d stages, want 1 (hops only add latency)", len(idle.Stages))
	}

	single, err := SingleWorker(Config{Net: net, Chain: chain})
	if err != nil {
		t.Fatalf("SingleWorker: %v", err)
	}
	// Just past the single worker's saturation point the one-stage plan is
	// infeasible while the chain still has headroom.
	rate := single.SustainableRate * 1.3
	if _, err := SingleWorker(Config{Net: net, Chain: chain, ArrivalRate: rate}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("saturated SingleWorker: err = %v, want ErrInfeasible", err)
	}
	loaded, err := Solve(Config{Net: net, Chain: chain, ArrivalRate: rate})
	if err != nil {
		t.Fatalf("Solve loaded: %v", err)
	}
	if len(loaded.Stages) < 2 {
		t.Fatalf("loaded solve used %d stages, want >= 2", len(loaded.Stages))
	}
	if m := net.Profile.NumExits(); loaded.Cuts[len(loaded.Cuts)-1] != m {
		t.Fatalf("loaded cut %v does not end at the last layer %d", loaded.Cuts, m)
	}
	if loaded.SustainableRate <= single.SustainableRate {
		t.Fatalf("pipelined sustainable rate %.3g should exceed single-worker %.3g",
			loaded.SustainableRate, single.SustainableRate)
	}
}

func TestEarlyExitWeighting(t *testing.T) {
	// With everyone exiting at E1, layers past E1 must contribute nothing.
	net := testNet(t, 5, 11, 1, 1)
	chain := Chain{
		Workers: []Worker{{FLOPS: 1e9}},
		Hops:    []Hop{{BandwidthBps: 50e6, LatencySec: 0.01}},
	}
	plan, err := SingleWorker(Config{Net: net, Chain: chain})
	if err != nil {
		t.Fatalf("SingleWorker: %v", err)
	}
	p := net.Profile
	want := chain.Hops[0].delaySec(p.DataBytes(0)) +
		(p.CumulativeFLOPs(net.E1)+p.ExitClassifierFLOPs(net.E1))/1e9
	if math.Abs(plan.ExpectedLatencySec-want) > 1e-9 {
		t.Fatalf("all-exit-1 latency %.12g, want %.12g", plan.ExpectedLatencySec, want)
	}
}

func TestValidation(t *testing.T) {
	net := testNet(t, 5, 11, 0.4, 0.8)
	chain := Chain{Workers: []Worker{{FLOPS: 1e9}}, Hops: []Hop{{}}}
	if _, err := Solve(Config{Net: nil, Chain: chain}); err == nil {
		t.Fatal("nil net accepted")
	}
	if _, err := Solve(Config{Net: net, Chain: Chain{}}); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := Solve(Config{Net: net, Chain: chain, ArrivalRate: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := Evaluate(Config{Net: net, Chain: chain}, []int{3}); err == nil {
		t.Fatal("cut short of m accepted")
	}
	m := net.Profile.NumExits()
	if _, err := Evaluate(Config{Net: net, Chain: chain}, []int{m, m}); err == nil {
		t.Fatal("more cuts than workers accepted")
	}
}

func TestStageMetadata(t *testing.T) {
	net := testNet(t, 5, 11, 0.4, 0.8)
	m := net.Profile.NumExits()
	cfg := Config{
		Net: net,
		Chain: Chain{
			Workers: []Worker{{FLOPS: 1e9}, {FLOPS: 1e9}, {FLOPS: 1e9}},
			Hops:    []Hop{{}, {}, {}},
		},
	}
	plan, err := Evaluate(cfg, []int{6, 12, m})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s := plan.Stages
	if !s[0].Hosted[0] || s[0].Hosted[1] || s[0].Hosted[2] {
		t.Fatalf("stage 0 hosting %v, want exit 1 only", s[0].Hosted)
	}
	if !s[1].Hosted[1] || s[1].Hosted[0] || s[1].Hosted[2] {
		t.Fatalf("stage 1 hosting %v, want exit 2 only", s[1].Hosted)
	}
	if !s[2].Hosted[2] {
		t.Fatalf("stage 2 hosting %v, want exit 3", s[2].Hosted)
	}
	if s[0].Deepest != 1 || s[1].Deepest != 2 || s[2].Deepest != 3 {
		t.Fatalf("deepest = %d,%d,%d, want 1,2,3", s[0].Deepest, s[1].Deepest, s[2].Deepest)
	}
	p := net.Profile
	if s[1].InBytes != p.DataBytes(6) || s[1].OutBytes != p.DataBytes(12) {
		t.Fatalf("stage 1 bytes in/out = %v/%v, want %v/%v",
			s[1].InBytes, s[1].OutBytes, p.DataBytes(6), p.DataBytes(12))
	}
	// An exit-1 task burns nothing past its hosting stage; an exit-3 task
	// burns the whole backbone plus all three classifiers across stages.
	if s[1].FLOPs[0] != 0 || s[2].FLOPs[0] != 0 {
		t.Fatalf("exit-1 compute leaked past stage 0: %v %v", s[1].FLOPs[0], s[2].FLOPs[0])
	}
	var total3 float64
	for _, st := range s {
		total3 += st.FLOPs[2]
	}
	want3 := p.TotalFLOPs() + p.ExitClassifierFLOPs(net.E1) + p.ExitClassifierFLOPs(net.E2) + p.ExitClassifierFLOPs(net.E3)
	if math.Abs(total3-want3) > 1e-6 {
		t.Fatalf("exit-3 compute across stages %.12g, want %.12g", total3, want3)
	}
}
