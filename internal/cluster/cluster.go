// Package cluster describes the hardware and network environment of a
// device–edge–cloud hierarchy: node compute capabilities (FLOPS), network
// paths (bandwidth, propagation latency), and paper-calibrated presets for
// the testbed the LEIME paper evaluates on (Raspberry Pi 3B+, Jetson Nano,
// an i7-3770 edge desktop, and a V100-class cloud).
//
// All capabilities are expressed as effective floating-point operations per
// second. Only the ratios between nodes drive LEIME's decisions, so the
// presets are calibrated to the ratios the paper reports (e.g. Jetson Nano
// outperforms a Raspberry Pi 3B+ by 8.2x on Inception v3) rather than to
// vendor peak numbers.
package cluster

import (
	"errors"
	"fmt"
)

// Node is a compute node participating in inference.
type Node struct {
	// Name identifies the node in logs and experiment tables.
	Name string
	// FLOPS is the node's effective floating-point throughput, in
	// floating-point operations per second.
	FLOPS float64
}

// validate reports whether the node is usable.
func (n Node) validate() error {
	if n.FLOPS <= 0 {
		return fmt.Errorf("cluster: node %q has non-positive FLOPS %v", n.Name, n.FLOPS)
	}
	return nil
}

// Path is a network link between two tiers of the hierarchy.
type Path struct {
	// BandwidthBps is the usable bandwidth in bits per second.
	BandwidthBps float64
	// LatencySec is the one-way propagation / connection-setup latency in
	// seconds (the paper's L terms).
	LatencySec float64
}

// Validate reports whether the path is usable.
func (p Path) Validate() error {
	if p.BandwidthBps <= 0 {
		return fmt.Errorf("cluster: path has non-positive bandwidth %v", p.BandwidthBps)
	}
	if p.LatencySec < 0 {
		return fmt.Errorf("cluster: path has negative latency %v", p.LatencySec)
	}
	return nil
}

// TransferSeconds returns the time in seconds to move the given number of
// bytes across the path, including the propagation latency.
func (p Path) TransferSeconds(bytes float64) float64 {
	if bytes <= 0 {
		return p.LatencySec
	}
	return bytes*8/p.BandwidthBps + p.LatencySec
}

// Env aggregates everything the exit-setting cost model (paper eqs. 1–4)
// needs to know about the environment: average device capability, edge and
// cloud capability, and the device–edge and edge–cloud paths.
type Env struct {
	// DeviceFLOPS is the average available device capability (F^d_av).
	DeviceFLOPS float64
	// EdgeFLOPS is the average available edge capability (F^e_av). This is
	// the per-device share when the edge is serving multiple devices, i.e.
	// it already reflects edge system load.
	EdgeFLOPS float64
	// CloudFLOPS is the cloud capability (F^c).
	CloudFLOPS float64
	// DeviceEdge is the device–edge path (B^e_av, L^e_av).
	DeviceEdge Path
	// EdgeCloud is the edge–cloud path (B^c_av, L^c_av).
	EdgeCloud Path
}

// Validate reports whether all environment parameters are usable.
func (e Env) Validate() error {
	var errs []error
	if e.DeviceFLOPS <= 0 {
		errs = append(errs, fmt.Errorf("cluster: DeviceFLOPS %v must be positive", e.DeviceFLOPS))
	}
	if e.EdgeFLOPS <= 0 {
		errs = append(errs, fmt.Errorf("cluster: EdgeFLOPS %v must be positive", e.EdgeFLOPS))
	}
	if e.CloudFLOPS <= 0 {
		errs = append(errs, fmt.Errorf("cluster: CloudFLOPS %v must be positive", e.CloudFLOPS))
	}
	if err := e.DeviceEdge.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("device-edge: %w", err))
	}
	if err := e.EdgeCloud.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("edge-cloud: %w", err))
	}
	return errors.Join(errs...)
}

// WithEdgeLoad returns a copy of the environment whose edge capability is
// scaled down by the given load factor in (0, 1]. share=1 means an idle edge
// fully available to this device; share=0.1 means the device only gets 10%
// of the edge (e.g. nine other tenants).
func (e Env) WithEdgeLoad(share float64) Env {
	out := e
	out.EdgeFLOPS = e.EdgeFLOPS * share
	return out
}

// WithDeviceEdge returns a copy of the environment with a replacement
// device–edge path.
func (e Env) WithDeviceEdge(p Path) Env {
	out := e
	out.DeviceEdge = p
	return out
}

// Paper-calibrated node presets. FLOPS values are effective (achieved on
// dense conv workloads), chosen so that the capability ratios match those
// reported in the paper: Jetson Nano ~8.2x Raspberry Pi 3B+ (Inception v3,
// §II-A); the edge desktop well above both; the cloud GPU far above the edge.
var (
	// RaspberryPi3B is a Raspberry Pi 3B+ (ARM Cortex-A53).
	RaspberryPi3B = Node{Name: "raspberry-pi-3b+", FLOPS: 1.2e9}
	// JetsonNano is an NVIDIA Jetson Nano (Maxwell GPU), 8.2x the Pi.
	JetsonNano = Node{Name: "jetson-nano", FLOPS: 9.84e9}
	// EdgeDesktop is the i7-3770 edge server of the paper's testbed.
	EdgeDesktop = Node{Name: "edge-i7-3770", FLOPS: 6.0e10}
	// CloudV100 is a Tesla V100-class cloud instance.
	CloudV100 = Node{Name: "cloud-v100", FLOPS: 2.0e12}
)

// Mbps converts megabits per second to bits per second.
func Mbps(v float64) float64 { return v * 1e6 }

// Paper-calibrated path presets.
var (
	// wifiDefault is the default device–edge WiFi path. The paper sweeps
	// 1–30 Mbps and 10–200 ms; this is a mid-range operating point.
	wifiDefault = Path{BandwidthBps: Mbps(10), LatencySec: 0.020}
	// InternetDefault is the default edge–cloud Internet path.
	InternetDefault = Path{BandwidthBps: Mbps(50), LatencySec: 0.030}
)

// TestbedEnv returns the paper's testbed environment for a given end device,
// with an idle edge.
func TestbedEnv(device Node) Env {
	return Env{
		DeviceFLOPS: device.FLOPS,
		EdgeFLOPS:   EdgeDesktop.FLOPS,
		CloudFLOPS:  CloudV100.FLOPS,
		DeviceEdge:  wifiDefault,
		EdgeCloud:   InternetDefault,
	}
}
