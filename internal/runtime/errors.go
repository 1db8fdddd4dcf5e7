package runtime

import (
	"errors"
	"fmt"

	"leime/internal/rpc"
)

// Typed sentinel errors for the runtime's application-level failures.
// They are registered with the rpc layer so errors.Is classifies them on
// the caller side of a connection exactly like locally produced errors.
var (
	// ErrBusy marks an offload an edge refused as busy. Edges admit by
	// backlog budget (ErrOverloaded) and never return it; its wire code
	// stays registered and devices treat it as a degrade-to-local signal,
	// so load generators and the benchmark that classify it keep working.
	ErrBusy = errors.New("edge busy: first-block backlog limit reached")
	// ErrUnknownDevice marks requests for a device the edge has no tenant
	// state for — the normal outcome after an edge restart, which the
	// device's reconnect hook repairs by re-registering.
	ErrUnknownDevice = errors.New("edge: unknown device")
	// ErrOverloaded marks work rejected by admission control. The work
	// never started; how the device should react depends on the reason,
	// which crosses the wire as one of the two typed refinements below
	// (both unwrap to this sentinel, so errors.Is(err, ErrOverloaded)
	// still classifies the whole family).
	ErrOverloaded = errors.New("runtime: overloaded: admission rejected the task")
	// ErrOverloadCapacity is the capacity reason: accepting the task would
	// push a bounded queue past its backlog budget
	// (ControlPolicy.MaxBacklogSec, seconds of work derived from the
	// node's FLOPS rating). The server is saturated but the task itself is
	// fine — the device treats it as a degrade-to-local signal and re-runs
	// the blocks on its own CPU instead of retrying against a saturated
	// server.
	ErrOverloadCapacity = fmt.Errorf("%w: backlog budget exhausted", ErrOverloaded)
	// errBlock2Refused is the capacity reason given for block 2: the edge
	// (or the peer it stole the task to) may already have served block 1,
	// so the device runs the remaining blocks from block 2 on and never
	// runs block 1 twice.
	errBlock2Refused = fmt.Errorf("%w at block 2", ErrOverloadCapacity)
	// ErrDeadlineInfeasible is the deadline reason: deadline admission
	// (ControlPolicy.DeadlineAdmission) predicted that queueing wait plus
	// service cannot fit the deadline the task carries in rpc.Meta. The
	// task's budget is already as good as blown, so the device sheds it
	// immediately — burning local CPU on a result that will arrive late
	// anyway would only steal capacity from tasks that can still make it.
	ErrDeadlineInfeasible = fmt.Errorf("%w: predicted completion misses the task deadline", ErrOverloaded)
	// ErrUnknownPipeline marks an activation for a (pipeline, stage) the
	// edge has no installed state for — the normal outcome after a worker
	// restart, repaired by re-pushing the chain (stage installs are
	// idempotent upserts). Upstream stages treat it like an unreachable
	// next hop and degrade to their deepest hosted exit.
	ErrUnknownPipeline = errors.New("edge: unknown pipeline stage")
)

func init() {
	rpc.RegisterError("runtime/busy", ErrBusy)
	rpc.RegisterError("runtime/unknown-device", ErrUnknownDevice)
	rpc.RegisterError("runtime/overloaded", ErrOverloaded)
	// The reason refinements must sort lexicographically before
	// "runtime/overloaded": codeFor resolves an error matching several
	// sentinels to the smallest code, and each refinement matches its own
	// code plus the generic one ('-' < 'e', so "overload-..." wins), and
	// the block-2 refinement sorts before the capacity reason it refines.
	rpc.RegisterError("runtime/overload-block2", errBlock2Refused)
	rpc.RegisterError("runtime/overload-capacity", ErrOverloadCapacity)
	rpc.RegisterError("runtime/overload-deadline", ErrDeadlineInfeasible)
	// A shutdown race can surface the executor's closed state from a
	// handler mid-drain; without a code it would reach the device untyped.
	rpc.RegisterError("runtime/executor-closed", ErrExecutorClosed)
	rpc.RegisterError("runtime/unknown-pipeline", ErrUnknownPipeline)
}
