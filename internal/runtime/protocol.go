// Package runtime is the testbed of the reproduction: real device, edge and
// cloud agents talking over TCP with netem-shaped links, burning calibrated
// compute per DNN block, and running LEIME's online offloading controller on
// real queue observations. It mirrors the paper's prototype (Raspberry
// Pis/Jetson Nanos + i7 edge + V100 cloud, COMCAST shaping, Docker per-device
// quotas) with configured FLOPS ratings replacing owned hardware.
package runtime

import (
	"sync/atomic"
	"time"

	"leime/internal/offload"
)

// Message types exchanged between tiers. Payloads carry real bytes so netem
// shaping sees authentic message sizes.

// zeroSlab backs every placeholder tensor in the process: all zeros, only
// ever replaced by a longer one, never written after it is published.
var zeroSlab atomic.Pointer[[]byte]

// zeroPayload returns n zero bytes standing in for a tensor whose size, not
// content, is the experiment (a raw input, an intermediate activation). The
// bytes are shared by every caller and read-only: the result goes into a
// request, whose encoder copies it onto the wire. len == cap == n, so an
// append cannot reach the slab.
func zeroPayload(n int) []byte {
	for {
		cur := zeroSlab.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n:n]
		}
		grown := make([]byte, n)
		if zeroSlab.CompareAndSwap(cur, &grown) {
			return grown
		}
	}
}

// RegisterReq announces a device to the edge server.
type RegisterReq struct {
	// DeviceID uniquely names the device.
	DeviceID string
	// FLOPS is the device capability (used by the KKT allocation).
	FLOPS float64
	// ArrivalMean is the device's expected tasks per slot (k_i).
	ArrivalMean float64
	// Model is the device's deployed ME-DNN. A zero value keeps the edge's
	// default model; a populated one lets heterogeneous applications share
	// one edge (each tenant's blocks are executed with its own FLOPs and
	// exit rates).
	Model offload.ModelParams
}

// RegisterResp acknowledges registration.
type RegisterResp struct {
	// ShareFLOPS is p_i * F^e: the edge compute reserved for the device.
	ShareFLOPS float64
}

// FirstBlockReq offloads a raw task to the edge: the edge runs block 1 and
// everything after it.
type FirstBlockReq struct {
	DeviceID string
	TaskID   uint64
	// Payload is the raw input (d_0 bytes).
	Payload []byte
	// ExitStage is the exit the task will leave through (1, 2 or 3),
	// determined by the confidence model from the sample's difficulty.
	ExitStage int
}

// SecondBlockReq continues a task whose first block ran on the device: the
// edge runs block 2 and, if needed, forwards to the cloud.
type SecondBlockReq struct {
	DeviceID string
	TaskID   uint64
	// Payload is the First-exit intermediate tensor (d_1 bytes).
	Payload []byte
	// ExitStage is the task's predetermined exit (2 or 3).
	ExitStage int
}

// ThirdBlockReq continues a task on the cloud after the Second exit.
type ThirdBlockReq struct {
	TaskID uint64
	// Payload is the Second-exit intermediate tensor (d_2 bytes).
	Payload []byte
	// FLOPs is the third block's operation count; zero uses the cloud's
	// default.
	FLOPs float64
}

// TaskResp reports a finished inference.
type TaskResp struct {
	TaskID uint64
	// ExitStage is where the task actually left the network.
	ExitStage int
}

// UpdateReq revises a device's expected arrival rate; the edge re-solves the
// KKT allocation and returns the device's new share. This is the runtime
// "fine-tuning" loop: devices report their observed load and the edge
// rebalances, responding to the transient mismatch between historical
// statistics and the live workload.
type UpdateReq struct {
	DeviceID string
	// ArrivalMean is the device's revised k_i estimate.
	ArrivalMean float64
}

// UnregisterReq removes a device; its edge share is redistributed to the
// remaining tenants.
type UnregisterReq struct {
	DeviceID string
}

// UnregisterResp acknowledges removal.
type UnregisterResp struct {
	// RemainingTenants is the number of devices still registered.
	RemainingTenants int
}

// EdgeStatsReq asks the edge for a snapshot of its tenancy state.
type EdgeStatsReq struct{}

// EdgeStatsResp is the edge's tenancy snapshot.
type EdgeStatsResp struct {
	// Tenants is the number of registered devices.
	Tenants int
	// PendingFirstBlock is the total first-block backlog across tenants.
	PendingFirstBlock int
	// Shares maps device IDs to their current edge share (fractions of F^e,
	// summing to 1).
	Shares map[string]float64
}

// HeartbeatReq asks an edge for its fleet health. Devices send it with
// their ID every decision epoch to feed edge selection; peer edges send it
// anonymously to track steal targets.
type HeartbeatReq struct {
	// DeviceID, when non-empty, asks for the sender's tenancy view
	// (pending backlog and current share) alongside the edge-wide health.
	DeviceID string
}

// HeartbeatResp is one edge's advertised health: the inputs to the fleet
// registry's readiness gating and to the device-side Lyapunov edge
// selection.
type HeartbeatResp struct {
	// Ready reports a warm KKT allocation (at least one resident tenant).
	Ready bool
	// FLOPS is the edge capability F^e.
	FLOPS float64
	// Tenants is the number of resident devices.
	Tenants int
	// BacklogSec is the edge-wide queued work in seconds across all
	// executors — the congestion penalty of the selection drift term.
	BacklogSec float64
	// Saturated reports a tenant executor at its admission budget;
	// saturated edges are skipped as steal targets.
	Saturated bool
	// PendingFirstBlock is the requesting device's first-block backlog
	// (H_{i,e}); zero when DeviceID was empty or unknown.
	PendingFirstBlock int
	// ShareFLOPS is the requesting device's current reserved compute;
	// zero when it is not a resident tenant.
	ShareFLOPS float64
}

// StealReq forwards an admission-rejected first-block task from a
// saturated edge to a ready peer. The receiving edge executes the full
// remaining pipeline (block 1 onward) on spare capacity and must never
// forward the task again — stealing is bounded to one hop by construction.
type StealReq struct {
	// DeviceID and TaskID identify the task for tracing; the device need
	// not be a tenant of the executing peer.
	DeviceID string
	TaskID   uint64
	// Payload is the raw input (d_0 bytes), carried so netem shaping sees
	// the true transfer size on the edge-peer path.
	Payload []byte
	// ExitStage is the task's predetermined exit (1, 2 or 3).
	ExitStage int
	// Hop counts forwarding hops; the origin edge sends 1 and peers
	// reject anything greater, making the one-hop bound structural.
	Hop int
	// Model carries the owning tenant's deployed ME-DNN so heterogeneous
	// tenants steal correctly; an invalid model falls back to the peer's
	// default.
	Model offload.ModelParams
}

// StageInstallReq installs (or replaces) one pipeline stage on an edge
// worker: the layer range's per-exit-class operation counts, which exit
// heads the range hosts, and where to forward survivors. Stages are
// addressed (PipelineID, Stage) and installation is an upsert, so a
// controller can re-push a chain after any worker restart.
type StageInstallReq struct {
	// PipelineID names the chain; one edge can host stages of many chains.
	PipelineID string
	// Stage is this worker's 0-based position in the chain.
	Stage int
	// FLOPs[c] is the operation count a task of exit class c+1 burns at
	// this stage (its backbone layers in the range plus every exit
	// classifier it passes there). Taken from partition.Stage.FLOPs.
	FLOPs [3]float64
	// Hosted[c] reports that exit class c+1 completes at this stage.
	Hosted [3]bool
	// Deepest is the deepest exit class (1..3) whose head lies at or
	// before this stage's end, or 0: the degraded answer when the next
	// hop is unreachable.
	Deepest int
	// OutBytes is the activation size forwarded to the next stage.
	OutBytes float64
	// NextAddr is the next stage's edge address; empty marks the terminal
	// stage.
	NextAddr string
}

// StageInstallResp acknowledges a stage installation.
type StageInstallResp struct {
	// Stage echoes the installed stage index.
	Stage int
}

// ActivationReq carries one task's intermediate activation into a pipeline
// stage: the stage burns its share of the task's compute and either
// answers from a hosted exit or forwards the next activation downstream.
// The payload carries real bytes so netem shaping prices the d_l transfer.
type ActivationReq struct {
	PipelineID string
	// DeviceID and TaskID identify the task for tracing and the reply.
	DeviceID string
	TaskID   uint64
	// Stage is the receiving worker's position; a mismatch with the
	// installed stage map is an unknown-pipeline error.
	Stage int
	// ExitStage is the task's predetermined exit class (1..3).
	ExitStage int
	// Payload is the activation tensor (d_Lo bytes for this stage).
	Payload []byte
}

// QueueStatReq asks the edge for the device's pending first-block backlog.
type QueueStatReq struct {
	DeviceID string
}

// QueueStatResp carries the backlog H_i observed at the edge.
type QueueStatResp struct {
	// PendingFirstBlock is the number of the device's first-block tasks
	// accepted but not yet finished at the edge.
	PendingFirstBlock int
}

// Idempotency markers for the rpc reliability layer: control-plane requests
// (registration, stat reads, rate updates) are safe to deliver twice, so a
// ReliableClient may retry them after a transport failure. Block executions
// (FirstBlockReq, SecondBlockReq, ThirdBlockReq) deliberately carry no
// marker — re-running a block would burn compute twice, so devices degrade
// those to local execution instead of retrying.

// Idempotent marks registration as safely repeatable (it upserts tenant
// state and re-solves the allocation either way).
func (RegisterReq) Idempotent() bool { return true }

// Idempotent marks backlog reads as safely repeatable.
func (QueueStatReq) Idempotent() bool { return true }

// Idempotent marks rate updates as safely repeatable (the edge keeps only
// the latest estimate).
func (UpdateReq) Idempotent() bool { return true }

// Idempotent marks removal as safely repeatable (removing a device twice
// fails the second time with ErrUnknownDevice, which callers treat as done).
func (UnregisterReq) Idempotent() bool { return true }

// Idempotent marks tenancy snapshots as safely repeatable.
func (EdgeStatsReq) Idempotent() bool { return true }

// Idempotent marks heartbeats as safely repeatable (pure reads).
func (HeartbeatReq) Idempotent() bool { return true }

// Idempotent marks stage installation as safely repeatable (it upserts the
// stage and re-dials the next hop either way). ActivationReq deliberately
// carries no marker: re-delivering an activation would burn stage compute
// twice, so upstream degrades to its deepest hosted exit instead of
// retrying.
func (StageInstallReq) Idempotent() bool { return true }

// Scale compresses testbed time so experiments finish quickly: all compute
// burns, link delays and slot lengths are multiplied by the factor. 1.0 is
// real time; 0.01 runs a 100-second experiment in one second. Latency
// ordering and ratios are preserved exactly.
type Scale float64

// scaled scales a duration.
func (s Scale) scaled(d time.Duration) time.Duration {
	if s <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(s))
}

// Seconds scales a duration expressed in seconds.
func (s Scale) Seconds(sec float64) time.Duration {
	return s.scaled(time.Duration(sec * float64(time.Second)))
}

// ModelSeconds converts a measured wall-clock duration back into model
// seconds, inverting Seconds; non-positive scales are identity (real
// time). Controllers compare observations in model seconds so the same
// policy values work at any time compression.
func (s Scale) ModelSeconds(d time.Duration) float64 {
	if s <= 0 {
		return d.Seconds()
	}
	return d.Seconds() / float64(s)
}
