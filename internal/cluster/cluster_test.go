package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodeValidate(t *testing.T) {
	if err := RaspberryPi3B.validate(); err != nil {
		t.Errorf("preset invalid: %v", err)
	}
	if err := (Node{Name: "x", FLOPS: 0}).validate(); err == nil {
		t.Error("zero FLOPS accepted")
	}
}

func TestPathTransferSeconds(t *testing.T) {
	p := Path{BandwidthBps: 8e6, LatencySec: 0.05}
	if got := p.TransferSeconds(1e6); math.Abs(got-1.05) > 1e-12 {
		t.Errorf("TransferSeconds = %v, want 1.05", got)
	}
	if got := p.TransferSeconds(0); got != 0.05 {
		t.Errorf("zero bytes should cost latency only, got %v", got)
	}
}

func TestPathValidate(t *testing.T) {
	if err := (Path{BandwidthBps: 0}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := (Path{BandwidthBps: 1, LatencySec: -1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestEnvValidateCollectsAll(t *testing.T) {
	if err := TestbedEnv(JetsonNano).Validate(); err != nil {
		t.Errorf("testbed env invalid: %v", err)
	}
	if err := (Env{}).Validate(); err == nil {
		t.Error("zero env accepted")
	}
}

func TestWithEdgeLoad(t *testing.T) {
	env := TestbedEnv(RaspberryPi3B)
	loaded := env.WithEdgeLoad(0.25)
	if loaded.EdgeFLOPS != env.EdgeFLOPS*0.25 {
		t.Errorf("EdgeFLOPS = %v", loaded.EdgeFLOPS)
	}
	if loaded.DeviceFLOPS != env.DeviceFLOPS {
		t.Error("WithEdgeLoad must not touch other fields")
	}
}

func TestWithDeviceEdge(t *testing.T) {
	env := TestbedEnv(RaspberryPi3B)
	p := Path{BandwidthBps: 123, LatencySec: 0.5}
	got := env.WithDeviceEdge(p)
	if got.DeviceEdge != p {
		t.Errorf("DeviceEdge = %+v", got.DeviceEdge)
	}
	if env.DeviceEdge == p {
		t.Error("WithDeviceEdge mutated the receiver")
	}
}

func TestPaperCapabilityRatios(t *testing.T) {
	// §II-A: Jetson Nano outperforms the Raspberry Pi 3B+ by 8.2x.
	ratio := JetsonNano.FLOPS / RaspberryPi3B.FLOPS
	if math.Abs(ratio-8.2) > 0.01 {
		t.Errorf("Nano/Pi ratio = %v, want 8.2", ratio)
	}
	if EdgeDesktop.FLOPS <= JetsonNano.FLOPS {
		t.Error("edge should outclass the strongest device")
	}
	if CloudV100.FLOPS <= EdgeDesktop.FLOPS {
		t.Error("cloud should outclass the edge")
	}
}

func TestMbps(t *testing.T) {
	if Mbps(10) != 1e7 {
		t.Errorf("Mbps(10) = %v", Mbps(10))
	}
}

func TestTransferMonotoneInBytesProperty(t *testing.T) {
	p := Path{BandwidthBps: 1e7, LatencySec: 0.01}
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return p.TransferSeconds(x) <= p.TransferSeconds(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
