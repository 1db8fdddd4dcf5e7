package confidence

import (
	"bytes"
	"testing"
	"testing/quick"

	"leime/internal/dataset"
	"leime/internal/model"
)

func newModel(t *testing.T, p *model.Profile) (*Model, *dataset.Dataset) {
	t.Helper()
	m, err := New(p, DefaultParams(p.Name), 99)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ds, err := dataset.Generate(dataset.CIFAR10Like, 1500, 7)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return m, ds
}

func TestSigmaMonotoneAndTerminal(t *testing.T) {
	for _, p := range model.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m, ds := newModel(t, p)
			sigma := m.Sigma(ds, m.UniformThresholds(0.6))
			if len(sigma) != p.NumExits() {
				t.Fatalf("sigma length %d, want %d", len(sigma), p.NumExits())
			}
			for i := 1; i < len(sigma); i++ {
				if sigma[i] < sigma[i-1] {
					t.Errorf("sigma not monotone at %d: %v < %v", i, sigma[i], sigma[i-1])
				}
			}
			if sigma[len(sigma)-1] != 1 {
				t.Errorf("sigma_m = %v, want 1", sigma[len(sigma)-1])
			}
			for i, s := range sigma {
				if s < 0 || s > 1 {
					t.Errorf("sigma[%d] = %v out of [0,1]", i, s)
				}
			}
		})
	}
}

func TestDeeperExitMoreConfident(t *testing.T) {
	p := model.InceptionV3()
	m, ds := newModel(t, p)
	// For every sample, confidence must be non-decreasing in depth (noise is
	// per-sample, not per-exit, so the depth term dominates).
	for _, s := range ds.Samples[:200] {
		prev := -1.0
		for e := 1; e <= p.NumExits(); e++ {
			c := m.Confidence(s, e)
			if c < prev {
				t.Fatalf("sample %d: confidence decreased with depth at exit %d: %v < %v", s.ID, e, c, prev)
			}
			prev = c
		}
	}
}

func TestEasierDatasetExitsEarlier(t *testing.T) {
	p := model.InceptionV3()
	m, _ := newModel(t, p)
	easy, _ := dataset.Generate(dataset.CIFAR10Like.WithEasyFrac(0.9), 2000, 5)
	hard, _ := dataset.Generate(dataset.CIFAR10Like.WithEasyFrac(0.05), 2000, 5)
	th := m.UniformThresholds(0.6)
	se := m.Sigma(easy, th)
	sh := m.Sigma(hard, th)
	mid := p.NumExits() / 2
	if se[mid] <= sh[mid] {
		t.Errorf("easy dataset should exit earlier: sigma_easy[%d]=%v <= sigma_hard[%d]=%v", mid, se[mid], mid, sh[mid])
	}
}

func TestEvaluateExitFracsSumToOne(t *testing.T) {
	for _, p := range model.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m, ds := newModel(t, p)
			th := m.UniformThresholds(0.6)
			ev, err := m.Evaluate(ds, 2, p.NumExits()-1, th)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			sum := ev.ExitFrac[0] + ev.ExitFrac[1] + ev.ExitFrac[2]
			if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("exit fractions sum to %v, want 1", sum)
			}
			if ev.Accuracy <= 0 || ev.Accuracy > 1 {
				t.Errorf("accuracy %v out of (0,1]", ev.Accuracy)
			}
			if ev.BaselineAccuracy <= 0.5 {
				t.Errorf("baseline accuracy %v implausibly low", ev.BaselineAccuracy)
			}
		})
	}
}

func TestEvaluateRejectsBadExits(t *testing.T) {
	p := model.VGG16()
	m, ds := newModel(t, p)
	th := m.UniformThresholds(0.6)
	for _, c := range []struct{ e1, e2 int }{{0, 5}, {5, 5}, {5, p.NumExits()}} {
		if _, err := m.Evaluate(ds, c.e1, c.e2, th); err == nil {
			t.Errorf("Evaluate(%d,%d) expected error", c.e1, c.e2)
		}
	}
}

func TestCalibrateBoundsLoss(t *testing.T) {
	for _, p := range model.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m, ds := newModel(t, p)
			th, sigma := m.Calibrate(ds, 0.02)
			// Early exits must be usable: a meaningful fraction of traffic
			// leaves before the final exit.
			if sigma[p.NumExits()-2] <= 0.05 {
				t.Errorf("calibrated sigma admits almost no early exits: %v", sigma)
			}
			// And the resulting ME-DNN accuracy loss stays small (Fig. 6
			// reports average losses under ~1.7%).
			ev, err := m.Evaluate(ds, 2, p.NumExits()-1, th)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			if loss := ev.AccuracyLoss(); loss > 0.05 {
				t.Errorf("accuracy loss %v too large after calibration", loss)
			}
		})
	}
}

func TestOverthinkingCanImproveAccuracy(t *testing.T) {
	// ResNet-34 is calibrated with strong overthinking: some exit combination
	// must beat the original network (negative loss), per Fig. 6(b).
	p := model.ResNet34()
	m, ds := newModel(t, p)
	th, _ := m.Calibrate(ds, DefaultLossBudget(p.Name))
	negative := false
	for e1 := 1; e1 < p.NumExits()-1 && !negative; e1++ {
		for e2 := e1 + 1; e2 < p.NumExits() && !negative; e2++ {
			ev, err := m.Evaluate(ds, e1, e2, th)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			if ev.AccuracyLoss() < 0 {
				negative = true
			}
		}
	}
	if !negative {
		t.Error("no exit combination improved on the original network; overthinking not reproduced")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Slope: 0, AccSlope: 1},
		{Slope: 1, Noise: -1, AccSlope: 1},
		{Slope: 1, AccSlope: 0},
		{Slope: 1, AccSlope: 1, Overthink: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	for _, name := range []string{"vgg-16", "resnet-34", "inception-v3", "squeezenet-1.0", "unknown"} {
		if err := DefaultParams(name).Validate(); err != nil {
			t.Errorf("DefaultParams(%q) invalid: %v", name, err)
		}
	}
}

func TestCorrectProbBounds(t *testing.T) {
	p := model.SqueezeNet10()
	m, _ := newModel(t, p)
	f := func(rawD uint16, rawE uint8) bool {
		s := dataset.Sample{ID: int(rawE), Difficulty: float64(rawD) / 65535}
		e := 1 + int(rawE)%p.NumExits()
		pc := m.CorrectProb(s, e)
		return pc >= 0 && pc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReportConsistentWithSigma(t *testing.T) {
	p := model.InceptionV3()
	m, ds := newModel(t, p)
	th, sigma := m.Calibrate(ds, DefaultLossBudget(p.Name))
	rep := m.Report(ds, th)
	if len(rep) != p.NumExits() {
		t.Fatalf("report has %d entries, want %d", len(rep), p.NumExits())
	}
	var marginalSum float64
	for i, r := range rep {
		if r.Exit != i+1 {
			t.Errorf("entry %d has exit %d", i, r.Exit)
		}
		marginalSum += r.MarginalRate
		// Cumulative rate must agree with the sigma vector, which is derived
		// by the same first-confident-exit rule.
		if d := r.CumulativeRate - sigma[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("exit %d: cumulative %v != sigma %v", r.Exit, r.CumulativeRate, sigma[i])
		}
		if r.MarginalRate > 0 && (r.ConditionalAccuracy <= 0 || r.ConditionalAccuracy > 1) {
			t.Errorf("exit %d: conditional accuracy %v out of range", r.Exit, r.ConditionalAccuracy)
		}
	}
	if d := marginalSum - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("marginal rates sum to %v", marginalSum)
	}
	// Calibration promises accepted traffic stays accurate at exits that
	// actually take meaningful traffic.
	for _, r := range rep {
		if r.MarginalRate > 0.05 && r.ConditionalAccuracy < 0.7 {
			t.Errorf("exit %d accepts %.0f%% of traffic at accuracy %v", r.Exit, 100*r.MarginalRate, r.ConditionalAccuracy)
		}
	}
}

func TestCalibrationArtifactRoundTrip(t *testing.T) {
	p := model.SqueezeNet10()
	m, ds := newModel(t, p)
	budget := DefaultLossBudget(p.Name)
	th, sigma := m.Calibrate(ds, budget)
	art := CalibrationArtifact{Arch: p.Name, LossBudget: budget, Thresholds: th, Sigma: sigma}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, art); err != nil {
		t.Fatalf("WriteArtifact: %v", err)
	}
	loaded, err := ReadArtifact(&buf, p)
	if err != nil {
		t.Fatalf("ReadArtifact: %v", err)
	}
	for i := range th {
		if loaded.Thresholds[i] != th[i] || loaded.Sigma[i] != sigma[i] {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
	// Wrong profile: rejected.
	var buf2 bytes.Buffer
	if err := WriteArtifact(&buf2, art); err != nil {
		t.Fatalf("WriteArtifact: %v", err)
	}
	if _, err := ReadArtifact(&buf2, model.VGG16()); err == nil {
		t.Error("artifact accepted for the wrong profile")
	}
	// Corrupted sigma: rejected.
	bad := art
	bad.Sigma = append([]float64(nil), sigma...)
	bad.Sigma[len(bad.Sigma)-1] = 0.5
	var buf3 bytes.Buffer
	if err := WriteArtifact(&buf3, bad); err != nil {
		t.Fatalf("WriteArtifact: %v", err)
	}
	if _, err := ReadArtifact(&buf3, p); err == nil {
		t.Error("artifact with sigma_m != 1 accepted")
	}
}

// BenchmarkCalibrate times one default-budget calibration of Inception v3
// on 1000 samples, the offline step every system build runs.
func BenchmarkCalibrate(b *testing.B) {
	p := model.InceptionV3()
	m, err := New(p, DefaultParams(p.Name), 42)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.CIFAR10Like, 1000, 42)
	if err != nil {
		b.Fatal(err)
	}
	budget := DefaultLossBudget(p.Name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Calibrate(ds, budget)
	}
}
