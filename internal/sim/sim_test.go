package sim

import (
	"math"
	"testing"

	"leime/internal/cluster"
	"leime/internal/offload"
	"leime/internal/trace"
)

// testModelParams is an ME-Inception-v3-like deployment.
func testModelParams() offload.ModelParams {
	return offload.ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
}

func baseSlotConfig(nDevices int, rate float64) SlotConfig {
	devs := make([]DeviceSpec, nDevices)
	for i := range devs {
		devs[i] = DeviceSpec{Device: offload.Device{
			FLOPS:        1.2e9,
			BandwidthBps: 1e7,
			LatencySec:   0.02,
			ArrivalMean:  rate,
		}}
	}
	return SlotConfig{
		Model:       testModelParams(),
		Devices:     devs,
		EdgeFLOPS:   6e10,
		CloudFLOPS:  2e12,
		EdgeCloud:   cluster.InternetDefault,
		TauSec:      1,
		V:           1e4,
		Slots:       300,
		WarmupSlots: 50,
		Seed:        42,
	}
}

func TestSlotConfigValidate(t *testing.T) {
	good := baseSlotConfig(2, 5)
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Devices = nil
	if err := bad.validate(); err == nil {
		t.Error("no devices accepted")
	}
	bad = good
	bad.EdgeFLOPS = 0
	if err := bad.validate(); err == nil {
		t.Error("zero edge accepted")
	}
	bad = good
	bad.WarmupSlots = bad.Slots
	if err := bad.validate(); err == nil {
		t.Error("warmup >= slots accepted")
	}
}

func TestRunSlotsProducesStableQueues(t *testing.T) {
	cfg := baseSlotConfig(3, 8)
	res, err := RunSlots(cfg)
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if res.MeanTCT <= 0 {
		t.Errorf("MeanTCT = %v, want positive", res.MeanTCT)
	}
	if res.FinalBacklog > 100 {
		t.Errorf("final backlog %v implies instability under light load", res.FinalBacklog)
	}
	for i, d := range res.PerDevice {
		if d.Arrivals == 0 {
			t.Errorf("device %d saw no arrivals", i)
		}
		if got := len(d.SlotTCT.Values); got != cfg.Slots {
			t.Errorf("device %d: %d slot samples, want %d", i, got, cfg.Slots)
		}
	}
}

func TestRunSlotsDeterministicPerSeed(t *testing.T) {
	cfg := baseSlotConfig(2, 6)
	a, err := RunSlots(cfg)
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	b, err := RunSlots(cfg)
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if a.MeanTCT != b.MeanTCT {
		t.Errorf("same seed diverged: %v vs %v", a.MeanTCT, b.MeanTCT)
	}
	cfg.Seed = 43
	c, err := RunSlots(cfg)
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if a.MeanTCT == c.MeanTCT {
		t.Error("different seeds produced identical results")
	}
}

func TestRunSlotsLyapunovBeatsDOnlyUnderLoad(t *testing.T) {
	// A loaded weak device must benefit from offloading.
	mk := func(p offload.Policy) float64 {
		cfg := baseSlotConfig(1, 15)
		cfg.Devices[0].Policy = &p
		res, err := RunSlots(cfg)
		if err != nil {
			t.Fatalf("RunSlots(%s): %v", p.Name, err)
		}
		return res.MeanTCT
	}
	leime := mk(offload.Lyapunov())
	dOnly := mk(offload.DeviceOnly())
	if leime >= dOnly {
		t.Errorf("LEIME (%v) should beat D-only (%v) on a loaded weak device", leime, dOnly)
	}
}

func TestRunSlotsTCTIncreasesWithArrivalRate(t *testing.T) {
	var prev float64
	for i, rate := range []float64{2, 10, 25} {
		res, err := RunSlots(baseSlotConfig(2, rate))
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if i > 0 && res.MeanTCT < prev*0.8 {
			t.Errorf("TCT dropped sharply with more load: %v -> %v at rate %v", prev, res.MeanTCT, rate)
		}
		prev = res.MeanTCT
	}
}

func baseEventConfig(nDevices int, rate float64) EventConfig {
	devs := make([]DeviceSpec, nDevices)
	for i := range devs {
		devs[i] = DeviceSpec{Device: offload.Device{
			FLOPS:        1.2e9,
			BandwidthBps: 1e7,
			LatencySec:   0.02,
			ArrivalMean:  rate,
		}}
	}
	return EventConfig{
		Model:       testModelParams(),
		Devices:     devs,
		EdgeFLOPS:   6e10,
		CloudFLOPS:  2e12,
		EdgeCloud:   cluster.InternetDefault,
		TauSec:      1,
		V:           1e4,
		Slots:       120,
		WarmupSlots: 20,
		Seed:        7,
	}
}

func TestRunEventsConservation(t *testing.T) {
	res, err := RunEvents(baseEventConfig(3, 6))
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if res.Completed != res.Generated {
		t.Errorf("completed %d != generated %d", res.Completed, res.Generated)
	}
	if sum := res.ExitCounts[0] + res.ExitCounts[1] + res.ExitCounts[2]; sum != res.Completed {
		t.Errorf("exit counts sum %d != completed %d", sum, res.Completed)
	}
}

func TestRunEventsExitFractionsMatchSigma(t *testing.T) {
	cfg := baseEventConfig(2, 20)
	cfg.Slots = 400
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	total := float64(res.Completed)
	sigma := cfg.Model.Sigma
	wants := []float64{sigma[0], sigma[1] - sigma[0], 1 - sigma[1]}
	for i, want := range wants {
		got := float64(res.ExitCounts[i]) / total
		if math.Abs(got-want) > 0.03 {
			t.Errorf("exit %d fraction %v, want ~%v", i+1, got, want)
		}
	}
}

func TestRunEventsPositiveTCTAboveFloor(t *testing.T) {
	cfg := baseEventConfig(1, 3)
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	// No task can beat the first block's bare compute time on the fastest
	// path available to it (device CPU, since offloading also pays upload).
	floor := cfg.Model.Mu[0] / cfg.EdgeFLOPS // generous lower bound
	if min := res.TCT.Percentile(0); min < floor {
		t.Errorf("min TCT %v below physical floor %v", min, floor)
	}
}

func TestRunEventsDeterministicPerSeed(t *testing.T) {
	cfg := baseEventConfig(2, 5)
	a, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	b, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if a.TCT.Mean() != b.TCT.Mean() {
		t.Errorf("same seed diverged: %v vs %v", a.TCT.Mean(), b.TCT.Mean())
	}
}

func TestRunEventsOffloadingHelpsLoadedWeakDevice(t *testing.T) {
	mk := func(p offload.Policy) float64 {
		cfg := baseEventConfig(1, 12)
		cfg.Devices[0].Policy = &p
		res, err := RunEvents(cfg)
		if err != nil {
			t.Fatalf("RunEvents(%s): %v", p.Name, err)
		}
		return res.TCT.Mean()
	}
	leime := mk(offload.Lyapunov())
	dOnly := mk(offload.DeviceOnly())
	if leime >= dOnly {
		t.Errorf("LEIME (%v) should beat D-only (%v) under load", leime, dOnly)
	}
}

func TestRunEventsFasterNetworkLowersTCT(t *testing.T) {
	mk := func(bw float64) float64 {
		cfg := baseEventConfig(1, 10)
		cfg.Devices[0].Device.BandwidthBps = bw
		res, err := RunEvents(cfg)
		if err != nil {
			t.Fatalf("RunEvents(bw=%v): %v", bw, err)
		}
		return res.TCT.Mean()
	}
	slow := mk(cluster.Mbps(2))
	fast := mk(cluster.Mbps(100))
	if fast >= slow {
		t.Errorf("faster uplink should lower TCT: %v >= %v", fast, slow)
	}
}

func TestRunEventsBurstyArrivalsRaiseTail(t *testing.T) {
	smooth := baseEventConfig(1, 10)
	res1, err := RunEvents(smooth)
	if err != nil {
		t.Fatalf("RunEvents smooth: %v", err)
	}
	bursty := baseEventConfig(1, 10)
	proc, err := trace.NewBursty(2, 50, 0.05, 0.25, 3)
	if err != nil {
		t.Fatalf("NewBursty: %v", err)
	}
	bursty.Devices[0].Arrivals = proc
	res2, err := RunEvents(bursty)
	if err != nil {
		t.Fatalf("RunEvents bursty: %v", err)
	}
	if res2.TCT.Percentile(99) <= res1.TCT.Percentile(99) {
		t.Errorf("bursty arrivals should raise the P99: %v <= %v",
			res2.TCT.Percentile(99), res1.TCT.Percentile(99))
	}
}

func TestRunEventsRejectsBadConfig(t *testing.T) {
	bad := baseEventConfig(1, 5)
	bad.Devices = nil
	if _, err := RunEvents(bad); err == nil {
		t.Error("no devices accepted")
	}
	bad = baseEventConfig(1, 5)
	bad.EdgeCloud.BandwidthBps = 0
	if _, err := RunEvents(bad); err == nil {
		t.Error("zero edge-cloud bandwidth accepted")
	}
	bad = baseEventConfig(1, 5)
	bad.TauSec = 0
	if _, err := RunEvents(bad); err == nil {
		t.Error("zero slot length accepted")
	}
}

func TestRunEventsUtilization(t *testing.T) {
	cfg := baseEventConfig(2, 8)
	dOnly := offload.DeviceOnly() // keep the device CPUs busy
	for i := range cfg.Devices {
		cfg.Devices[i].Policy = &dOnly
	}
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if len(res.Utilization) == 0 {
		t.Fatal("no utilization reported")
	}
	for name, u := range res.Utilization {
		if u < 0 || u > 1 {
			t.Errorf("station %s utilization %v out of [0,1]", name, u)
		}
	}
	// With D-only at rate 8 (service 0.167 s/task), the device CPU runs at
	// ~%75+ load while the enormous cloud CPU barely moves.
	if res.Utilization["dev0-cpu"] < 0.5 {
		t.Errorf("device CPU utilization %v implausibly low under D-only load", res.Utilization["dev0-cpu"])
	}
	if res.Utilization["dev0-cpu"] <= res.Utilization["cloud-cpu"] {
		t.Errorf("device CPU (%v) should be busier than the cloud (%v)",
			res.Utilization["dev0-cpu"], res.Utilization["cloud-cpu"])
	}
}

func TestStationUtilizationAccounting(t *testing.T) {
	var e engine
	st := newStation("cpu")
	e.At(0, func() { st.Submit(&e, 3, 0, nil) })
	e.At(1, func() { st.Submit(&e, 2, 0, nil) })
	if _, err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := st.busyTotal; got != 5 {
		t.Errorf("busy seconds = %v, want 5", got)
	}
	if got := st.served; got != 2 {
		t.Errorf("served = %d, want 2", got)
	}
	if got := st.Utilization(10); got != 0.5 {
		t.Errorf("Utilization(10) = %v, want 0.5", got)
	}
	if got := st.Utilization(0); got != 0 {
		t.Errorf("Utilization(0) = %v, want 0", got)
	}
	if got := st.Utilization(2); got != 1 {
		t.Errorf("Utilization(2) = %v, want clamp to 1", got)
	}
}

func TestRunEventsDeadlineTracking(t *testing.T) {
	cfg := baseEventConfig(1, 8)
	cfg.DeadlineSec = 0.3
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.DeadlineMisses < 0 || res.DeadlineMisses > res.TCT.Count() {
		t.Fatalf("misses %d out of range (samples %d)", res.DeadlineMisses, res.TCT.Count())
	}
	// A generous deadline must miss strictly less often than a brutal one.
	cfg.DeadlineSec = 0.005
	brutal, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents brutal: %v", err)
	}
	if brutal.DeadlineMisses <= res.DeadlineMisses {
		t.Errorf("tighter deadline should miss more: %d <= %d", brutal.DeadlineMisses, res.DeadlineMisses)
	}
	// No deadline => no misses counted.
	cfg.DeadlineSec = 0
	none, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents none: %v", err)
	}
	if none.DeadlineMisses != 0 {
		t.Errorf("misses counted without a deadline: %d", none.DeadlineMisses)
	}
}

func TestRunSlotsSingleSlotHandComputed(t *testing.T) {
	// One slot, one device, constant arrivals, D-only: the per-task TCT must
	// equal the analytic eq. 12 terms plus the expected tail, computed by
	// hand.
	m := testModelParams()
	dev := offload.Device{FLOPS: 1.2e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 4}
	dOnly := offload.DeviceOnly()
	cfg := SlotConfig{
		Model: m,
		Devices: []DeviceSpec{{
			Device:   dev,
			Arrivals: &trace.Constant{PerSlot: 4},
			Policy:   &dOnly,
		}},
		EdgeFLOPS:   6e10,
		CloudFLOPS:  2e12,
		EdgeCloud:   cluster.Path{BandwidthBps: 5e7, LatencySec: 0.03},
		TauSec:      1,
		V:           1e4,
		Slots:       2, // warmup must be < slots; measure slot 1
		WarmupSlots: 1,
		Seed:        1,
	}
	res, err := RunSlots(cfg)
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	// Slot 1 starts with Q = max(0, 4 - b) + 0 = 0 backlog? b = Fd/mu1 = 6 >= 4,
	// so Q(1) = max(4-6,0) = 0... plus arrivals 4 of slot 0: Q(1) = 0 + 4?  No:
	// Q(1) = max(Q(0) - b, 0) + A(0) = 0 + 4 = 4.
	const q1 = 4.0
	a := 4.0
	wait := a * q1 * m.Mu[0] / dev.FLOPS
	proc := a*m.Mu[0]/dev.FLOPS + a*(a-1)/2*m.Mu[0]/dev.FLOPS
	trans := (1 - m.Sigma[0]) * a * (m.D[1]*8/dev.BandwidthBps + dev.LatencySec)
	td := wait + proc + trans
	// Tail: at x = 0 the whole edge share serves block 2.
	tail := (1-m.Sigma[0])*m.Mu[1]/cfg.EdgeFLOPS +
		(1-m.Sigma[1])*(m.Mu[2]/cfg.CloudFLOPS+m.D[2]*8/cfg.EdgeCloud.BandwidthBps+cfg.EdgeCloud.LatencySec)
	want := td/a + tail
	if got := res.MeanTCT; math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanTCT = %v, want hand-computed %v", got, want)
	}
}
