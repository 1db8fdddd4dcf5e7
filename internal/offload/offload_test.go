package offload

import (
	"math"
	"math/rand"
	"testing"
)

// testModel is a plausible ME-Inception-v3-like deployment.
func testModel() ModelParams {
	return ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
}

func testDevice() Device {
	return Device{
		FLOPS:        1.2e9,
		BandwidthBps: 1e7,
		LatencySec:   0.02,
		ArrivalMean:  10,
	}
}

func testController(t *testing.T, v float64) *Controller {
	t.Helper()
	c, err := NewController(Config{Model: testModel(), TauSec: 1, V: v})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := Config{Model: testModel(), TauSec: 1, V: 100}
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Model: testModel(), TauSec: 0, V: 1},
		{Model: testModel(), TauSec: 1, V: 0},
		{Model: ModelParams{}, TauSec: 1, V: 1},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	m := testModel()
	m.Sigma = [3]float64{0.9, 0.5, 1} // non-monotone
	if err := m.Validate(); err == nil {
		t.Error("non-monotone sigma accepted")
	}
	m = testModel()
	m.Sigma[2] = 0.9
	if err := m.Validate(); err == nil {
		t.Error("sigma_3 != 1 accepted")
	}
}

func TestEvalHandComputed(t *testing.T) {
	c := testController(t, 100)
	dev := testDevice()
	slot := Slot{Arrivals: 10, State: State{Q: 5, H: 2}, EdgeShareFLOPS: 3e10}
	m := testModel()

	// x = 0: all local, edge terms vanish.
	got := c.Eval(dev, slot, 0)
	wait := 10.0 * 5 * m.Mu[0] / dev.FLOPS
	proc := 10*m.Mu[0]/dev.FLOPS + 45*m.Mu[0]/dev.FLOPS
	trans := (1 - m.Sigma[0]) * 10 * (m.D[1]*8/dev.BandwidthBps + dev.LatencySec)
	if want := wait + proc + trans; math.Abs(got.TD-want) > 1e-9 {
		t.Errorf("TD(0) = %v, want %v", got.TD, want)
	}
	if got.TE != 0 {
		t.Errorf("TE(0) = %v, want 0", got.TE)
	}

	// x = 1: all offloaded, device terms vanish. The edge's first-block
	// share (eq. 9) covers this slot's offloads plus the backlog H.
	got = c.Eval(dev, slot, 1)
	if got.TD != 0 {
		t.Errorf("TD(1) = %v, want 0", got.TD)
	}
	firstWork := (1*10 + slot.State.H) * m.Mu[0]
	fe1 := firstWork * slot.EdgeShareFLOPS / (firstWork + (1-m.Sigma[0])*10*m.Mu[1])
	upload := 10 * (m.D[0]*8/dev.BandwidthBps + dev.LatencySec)
	ewait := 10 * 2 * m.Mu[0] / fe1
	eproc := 10*m.Mu[0]/fe1 + 45*m.Mu[0]/fe1
	if want := upload + ewait + eproc; math.Abs(got.TE-want) > 1e-9 {
		t.Errorf("TE(1) = %v, want %v", got.TE, want)
	}
}

func TestBacklogDrainsWithoutOffloading(t *testing.T) {
	// Regression: a first-block backlog left at the edge by an earlier
	// offloading burst must keep draining even when the current decision is
	// x = 0 — eq. 9 taken literally would freeze it forever and lock the
	// controller out of offloading (the H wait term grows with H).
	c := testController(t, 1e4)
	dev := testDevice()
	st := State{H: 12}
	for i := 0; i < 50; i++ {
		slot := Slot{Arrivals: 5, State: st, EdgeShareFLOPS: 1e10}
		st = c.StepQueues(dev, slot, 0)
	}
	if st.H > 1e-9 {
		t.Errorf("edge backlog frozen at H=%v after 50 slots of x=0", st.H)
	}
}

func TestEvalMonotoneInX(t *testing.T) {
	c := testController(t, 100)
	dev := testDevice()
	slot := Slot{Arrivals: 8, State: State{Q: 3, H: 1}, EdgeShareFLOPS: 2e10}
	prevTD, prevTE := math.Inf(1), -1.0
	for x := 0.0; x <= 1.0001; x += 0.05 {
		costs := c.Eval(dev, slot, math.Min(x, 1))
		if costs.TD > prevTD+1e-9 {
			t.Fatalf("TD increased at x=%v: %v > %v", x, costs.TD, prevTD)
		}
		if costs.TE < prevTE-1e-9 {
			t.Fatalf("TE decreased at x=%v: %v < %v", x, costs.TE, prevTE)
		}
		prevTD, prevTE = costs.TD, costs.TE
	}
}

func TestEvalNoEdgeShare(t *testing.T) {
	c := testController(t, 100)
	dev := testDevice()
	slot := Slot{Arrivals: 5, State: State{}, EdgeShareFLOPS: 0}
	if got := c.Eval(dev, slot, 0.5); !math.IsInf(got.TE, 1) {
		t.Errorf("offloading with zero edge share should be infinitely costly, got TE=%v", got.TE)
	}
	if got := c.Decide(dev, slot); got != 0 {
		t.Errorf("Decide with zero edge share = %v, want 0", got)
	}
}

func TestBandwidthCap(t *testing.T) {
	c := testController(t, 100)
	dev := testDevice()

	// Generous bandwidth: no cap.
	dev.BandwidthBps = 1e9
	if got := c.bandwidthCap(dev, 10); got != 1 {
		t.Errorf("cap with generous bandwidth = %v, want 1", got)
	}
	// Starved link: everything capped out.
	dev.BandwidthBps = 1e3
	if got := c.bandwidthCap(dev, 10); got != 0 {
		t.Errorf("cap with starved link = %v, want 0", got)
	}
	// Cap is non-decreasing in bandwidth.
	prev := -1.0
	for _, bw := range []float64{1e4, 1e5, 1e6, 1e7, 1e8} {
		dev.BandwidthBps = bw
		got := c.bandwidthCap(dev, 50)
		if got < prev {
			t.Errorf("cap decreased with more bandwidth: %v < %v at %v bps", got, prev, bw)
		}
		prev = got
	}
	// Zero arrivals: vacuously uncapped.
	if got := c.bandwidthCap(dev, 0); got != 1 {
		t.Errorf("cap with zero arrivals = %v, want 1", got)
	}
}

func TestDecideRespectsCapAndRange(t *testing.T) {
	c := testController(t, 1e4)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		dev := Device{
			FLOPS:        1e8 * math.Pow(10, 2*rng.Float64()),
			BandwidthBps: 1e5 * math.Pow(10, 3*rng.Float64()),
			LatencySec:   0.2 * rng.Float64(),
			ArrivalMean:  1 + 40*rng.Float64(),
		}
		slot := Slot{
			Arrivals:       float64(rng.Intn(50)),
			State:          State{Q: 30 * rng.Float64(), H: 30 * rng.Float64()},
			EdgeShareFLOPS: 1e9 * math.Pow(10, 2*rng.Float64()),
		}
		x := c.Decide(dev, slot)
		if x < 0 || x > 1 {
			t.Fatalf("trial %d: x=%v out of range", trial, x)
		}
		if cap := c.bandwidthCap(dev, slot.Arrivals); x > cap+1e-9 {
			t.Fatalf("trial %d: x=%v exceeds bandwidth cap %v", trial, x, cap)
		}
	}
}

func TestDecideInteriorDecisionsBalanceOrBeatCorners(t *testing.T) {
	// Whenever Decide returns an interior ratio, it is either the
	// Cauchy–Schwarz balance point (T_i^d == T_i^e) or strictly better than
	// both corners on the P1' objective; and it never loses to a corner.
	c := testController(t, 1e4)
	rng := rand.New(rand.NewSource(17))
	interior := 0
	for trial := 0; trial < 400; trial++ {
		dev := Device{
			FLOPS:        5e8 + 1e10*rng.Float64(),
			BandwidthBps: 1e6 + 1e8*rng.Float64(),
			LatencySec:   0.05 * rng.Float64(),
			ArrivalMean:  1 + 30*rng.Float64(),
		}
		slot := Slot{
			Arrivals:       1 + float64(rng.Intn(40)),
			State:          State{Q: 20 * rng.Float64(), H: 20 * rng.Float64()},
			EdgeShareFLOPS: 1e9 + 5e10*rng.Float64(),
		}
		x := c.Decide(dev, slot)
		cap := c.bandwidthCap(dev, slot.Arrivals)
		obj := c.Eval(dev, slot, x).Objective
		for _, corner := range []float64{0, cap} {
			if cObj := c.Eval(dev, slot, corner).Objective; obj > cObj+1e-9*math.Abs(cObj) {
				t.Fatalf("trial %d: Decide(x=%v, obj=%v) lost to corner x=%v (obj=%v)", trial, x, obj, corner, cObj)
			}
		}
		if x > 1e-9 && x < cap-1e-9 {
			interior++
			costs := c.Eval(dev, slot, x)
			if rel := math.Abs(costs.TD-costs.TE) / math.Max(costs.TD, costs.TE); rel > 1e-6 {
				t.Errorf("trial %d: interior decision unbalanced: TD=%v TE=%v", trial, costs.TD, costs.TE)
			}
		}
	}
	if interior == 0 {
		t.Error("no interior decisions seen; test vacuous")
	}
}

func TestDecideCloseToCentralizedOptimum(t *testing.T) {
	// The decentralized balance rule must track the exact per-slot optimizer
	// of P1' closely when V is large (the queue terms it ignores vanish).
	c := testController(t, 1e8)
	rng := rand.New(rand.NewSource(6))
	var worst float64
	for trial := 0; trial < 300; trial++ {
		dev := Device{
			FLOPS:        5e8 + 1e10*rng.Float64(),
			BandwidthBps: 1e6 + 1e8*rng.Float64(),
			LatencySec:   0.05 * rng.Float64(),
			ArrivalMean:  1 + 30*rng.Float64(),
		}
		slot := Slot{
			Arrivals:       1 + float64(rng.Intn(40)),
			State:          State{Q: 20 * rng.Float64(), H: 20 * rng.Float64()},
			EdgeShareFLOPS: 1e9 + 5e10*rng.Float64(),
		}
		xd := c.Decide(dev, slot)
		xc := c.decideCentralized(dev, slot)
		od := c.Eval(dev, slot, xd).Objective
		oc := c.Eval(dev, slot, xc).Objective
		if oc <= 0 {
			continue
		}
		gap := (od - oc) / oc
		if gap > worst {
			worst = gap
		}
	}
	if worst > 0.25 {
		t.Errorf("decentralized decision up to %.1f%% above the per-slot optimum; want <= 25%%", worst*100)
	}
}

func TestQueueStabilityUnderAdmissibleLoad(t *testing.T) {
	// C3/C4 of P1: under a load the system can carry, queues are mean-rate
	// stable: backlog does not grow linearly with time.
	c := testController(t, 1e4)
	dev := testDevice()
	dev.ArrivalMean = 12
	rng := rand.New(rand.NewSource(11))
	st := State{}
	var maxBacklog float64
	const slots = 2000
	for ti := 0; ti < slots; ti++ {
		arrivals := float64(rng.Intn(2 * int(dev.ArrivalMean))) // mean ~12
		slot := Slot{Arrivals: arrivals, State: st, EdgeShareFLOPS: 1e10}
		x := c.Decide(dev, slot)
		st = c.StepQueues(dev, slot, x)
		if b := st.Q + st.H; b > maxBacklog {
			maxBacklog = b
		}
	}
	if final := st.Q + st.H; final/slots > 0.05 {
		t.Errorf("queues not mean-rate stable: final backlog %v after %d slots", final, slots)
	}
	if maxBacklog > 500 {
		t.Errorf("backlog peaked at %v tasks; system should be stable under admissible load", maxBacklog)
	}
}

func TestStepQueuesNeverNegative(t *testing.T) {
	c := testController(t, 100)
	dev := testDevice()
	rng := rand.New(rand.NewSource(13))
	st := State{}
	for i := 0; i < 500; i++ {
		slot := Slot{Arrivals: float64(rng.Intn(30)), State: st, EdgeShareFLOPS: 5e9 * rng.Float64()}
		st = c.StepQueues(dev, slot, rng.Float64())
		if st.Q < 0 || st.H < 0 {
			t.Fatalf("negative queue at step %d: %+v", i, st)
		}
	}
}

func TestLyapunovOffloadsMoreUnderLocalBacklog(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	dev.BandwidthBps = 1e8
	base := Slot{Arrivals: 10, State: State{Q: 0, H: 0}, EdgeShareFLOPS: 1e10}
	backlogged := base
	backlogged.State.Q = 50
	xBase := c.Decide(dev, base)
	xBacklogged := c.Decide(dev, backlogged)
	if xBacklogged < xBase {
		t.Errorf("local backlog should push work to the edge: x went %v -> %v", xBase, xBacklogged)
	}
}
