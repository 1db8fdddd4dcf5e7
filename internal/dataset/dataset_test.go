package dataset

import (
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(CIFAR10Like, 500, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(CIFAR10Like, 500, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs across identical seeds: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(CIFAR10Like, 200, 1)
	b, _ := Generate(CIFAR10Like, 200, 2)
	same := 0
	for i := range a.Samples {
		if a.Samples[i].Difficulty == b.Samples[i].Difficulty {
			same++
		}
	}
	if same == len(a.Samples) {
		t.Error("different seeds produced identical difficulty sequences")
	}
}

func TestDifficultyRange(t *testing.T) {
	ds, err := Generate(CIFAR10Like, 2000, 7)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, s := range ds.Samples {
		if s.Difficulty < 0 || s.Difficulty > 1 {
			t.Fatalf("sample %d difficulty %v out of [0,1]", s.ID, s.Difficulty)
		}
		if s.Label < 0 || s.Label >= numClasses {
			t.Fatalf("sample %d label %d out of range", s.ID, s.Label)
		}
	}
}

func TestEasyFracShiftsMeanDifficulty(t *testing.T) {
	easy, _ := Generate(CIFAR10Like.WithEasyFrac(0.9), 3000, 11)
	hard, _ := Generate(CIFAR10Like.WithEasyFrac(0.1), 3000, 11)
	if e, h := meanDifficulty(easy), meanDifficulty(hard); e >= h {
		t.Errorf("easier mixture should have lower mean difficulty: %v vs %v", e, h)
	}
}

func meanDifficulty(d *Dataset) float64 {
	var sum float64
	for _, s := range d.Samples {
		sum += s.Difficulty
	}
	return sum / float64(len(d.Samples))
}

func TestWithEasyFracKeepsValid(t *testing.T) {
	f := func(raw uint8) bool {
		frac := float64(raw) / 255
		m := CIFAR10Like.WithEasyFrac(frac)
		return m.validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadMixtures(t *testing.T) {
	cases := []Mixture{
		{EasyFrac: -0.1, Spread: 0.1},
		{EasyFrac: 0.7, HardFrac: 0.5, Spread: 0.1},
		{EasyFrac: 0.2, Spread: 0.9},
		{EasyFrac: 0.2, Spread: 0.1, EasyMode: 1.5},
	}
	for i, m := range cases {
		if err := m.validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, m)
		}
	}
}

func TestGenerateRejectsBadCount(t *testing.T) {
	if _, err := Generate(CIFAR10Like, 0, 1); err == nil {
		t.Error("Generate(n=0) expected error")
	}
}
