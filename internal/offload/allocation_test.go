package offload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocateSingleDeviceGetsEverything(t *testing.T) {
	p, err := Allocate([]Device{testDevice()}, 6e10)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(p) != 1 || math.Abs(p[0]-1) > 1e-9 {
		t.Errorf("single-device allocation = %v, want [1]", p)
	}
}

func TestAllocateSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		devices := make([]Device, n)
		for i := range devices {
			devices[i] = Device{
				FLOPS:        1e8 * math.Pow(10, 2*rng.Float64()),
				BandwidthBps: 1e7,
				LatencySec:   0.02,
				ArrivalMean:  rng.Float64() * 50,
			}
		}
		p, err := Allocate(devices, 6e10)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum float64
		for i, v := range p {
			if v < 0 {
				t.Fatalf("trial %d: negative share p[%d]=%v", trial, i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: shares sum to %v", trial, sum)
		}
	}
}

func TestAllocateFavorsBusyWeakDevices(t *testing.T) {
	devices := []Device{
		{FLOPS: 1.2e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 40}, // weak, busy
		{FLOPS: 9.8e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 5},  // strong, idle
	}
	p, err := Allocate(devices, 6e10)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if p[0] <= p[1] {
		t.Errorf("weak busy device should get the larger share: %v", p)
	}
}

func TestAllocateOptimalAgainstAlternatives(t *testing.T) {
	// The KKT allocation must not lose to uniform or demand-proportional
	// splits on the objective it optimizes (eq. 26).
	rng := rand.New(rand.NewSource(33))
	m := testModel()
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		devices := make([]Device, n)
		var totalK float64
		for i := range devices {
			devices[i] = Device{
				FLOPS:        1e8 * math.Pow(10, 1.5*rng.Float64()),
				BandwidthBps: 1e7,
				LatencySec:   0.02,
				ArrivalMean:  1 + rng.Float64()*40,
			}
			totalK += devices[i].ArrivalMean
		}
		edge := 6e10
		kkt, err := Allocate(devices, edge)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fKKT, err := meanInferenceTime(devices, edge, kkt, m)
		if err != nil {
			t.Fatalf("meanInferenceTime: %v", err)
		}
		uniform := make([]float64, n)
		proportional := make([]float64, n)
		for i := range devices {
			uniform[i] = 1 / float64(n)
			proportional[i] = devices[i].ArrivalMean / totalK
		}
		fUniform, _ := meanInferenceTime(devices, edge, uniform, m)
		fProp, _ := meanInferenceTime(devices, edge, proportional, m)
		if fKKT > fUniform+1e-12 {
			t.Errorf("trial %d: KKT (%v) lost to uniform (%v)", trial, fKKT, fUniform)
		}
		if fKKT > fProp+1e-12 {
			t.Errorf("trial %d: KKT (%v) lost to proportional (%v)", trial, fKKT, fProp)
		}
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(nil, 1e10); err == nil {
		t.Error("empty device list accepted")
	}
	if _, err := Allocate([]Device{testDevice()}, 0); err == nil {
		t.Error("zero edge FLOPS accepted")
	}
	if _, err := Allocate([]Device{{FLOPS: -1}}, 1e10); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestMeanInferenceTimeLengthMismatch(t *testing.T) {
	if _, err := meanInferenceTime([]Device{testDevice()}, 1e10, []float64{0.5, 0.5}, testModel()); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestAllocateScaleInvariantProperty(t *testing.T) {
	// Scaling every arrival rate by the same factor must not change the
	// allocation (the KKT form depends on sqrt(k) ratios only).
	f := func(scaleRaw uint8) bool {
		scale := 0.5 + float64(scaleRaw)/64
		devices := []Device{
			{FLOPS: 1.2e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 10},
			{FLOPS: 2.4e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 20},
			{FLOPS: 9.8e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 35},
		}
		base, err := Allocate(devices, 6e10)
		if err != nil {
			return false
		}
		scaled := make([]Device, len(devices))
		copy(scaled, devices)
		for i := range scaled {
			scaled[i].ArrivalMean *= scale
		}
		got, err := Allocate(scaled, 6e10)
		if err != nil {
			return false
		}
		for i := range base {
			if math.Abs(base[i]-got[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoliciesReturnValidRatios(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	slot := Slot{Arrivals: 15, State: State{Q: 5, H: 3}, EdgeShareFLOPS: 1e10}
	policies := append(ClassicBaselines(), Lyapunov(), FixedRatio(0.4), FixedRatio(1.7), FixedRatio(-2))
	for _, p := range policies {
		x := p.Decide(c, dev, slot)
		if x < 0 || x > 1 {
			t.Errorf("%s returned x=%v out of [0,1]", p.Name, x)
		}
	}
	if got := DeviceOnly().Decide(c, dev, slot); got != 0 {
		t.Errorf("D-only = %v, want 0", got)
	}
	if got := FixedRatio(0.4).Decide(c, dev, slot); got != 0.4 {
		t.Errorf("fixed(0.4) = %v", got)
	}
}

func TestCapabilityBasedScalesWithEdgeShare(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	dev.BandwidthBps = 1e9 // uncapped
	small := Slot{Arrivals: 10, EdgeShareFLOPS: 1e9}
	large := Slot{Arrivals: 10, EdgeShareFLOPS: 5e10}
	xs := CapabilityBased().Decide(c, dev, small)
	xl := CapabilityBased().Decide(c, dev, large)
	if xl <= xs {
		t.Errorf("more edge share should offload more: %v <= %v", xl, xs)
	}
}
