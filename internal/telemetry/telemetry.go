// Package telemetry is the observability substrate shared by the socket
// testbed, the discrete-event simulator and the daemons: span-based
// task-lifecycle tracing with cross-process trace/span IDs, a low-overhead
// metrics registry with Prometheus text exposition, and an HTTP admin
// server. A nil *Tracer or *Registry is a valid, true no-op: every method
// degenerates to a nil check, so uninstrumented runs pay a predictable
// branch and nothing else.
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a task-lifecycle trace. The JSON field names are the
// shared event schema: the testbed's wall-clock spans and the simulator's
// model-time spans serialize identically, so runs from either system are
// diffable with one tool. Start and End are seconds on the emitting
// tracer's clock (wall seconds since the tracer's epoch for the testbed,
// simulation seconds for the simulator).
type Span struct {
	// Trace groups every span of one task lifecycle, across tiers.
	Trace uint64 `json:"trace"`
	// Span uniquely identifies this span within the tracer's ID space.
	Span uint64 `json:"span"`
	// Parent is the enclosing span's ID (0 for a trace root).
	Parent uint64 `json:"parent,omitempty"`
	// Name is the span taxonomy entry (task, device.decision, device.queue,
	// device.block1, uplink, rpc.first_block, edge.queue, edge.block1, ...).
	Name string `json:"name"`
	// Device is the owning device ID, set on spans that know it.
	Device string `json:"device,omitempty"`
	// Task is the task ID within the device, set on spans that know it.
	Task uint64 `json:"task,omitempty"`
	// Exit is the exit stage (1..3) on spans that record one.
	Exit int `json:"exit,omitempty"`
	// Note carries a short free-form annotation (e.g. "offload", "local",
	// "fallback").
	Note string `json:"note,omitempty"`
	// Start and End are the span's bounds in seconds on the tracer clock.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// SpanContext is the portable reference to a span: what crosses process
// boundaries inside the rpc envelope. The zero value means "no trace".
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context references a live trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// defaultSpanCapacity bounds the tracer's finished-span ring buffer when no
// capacity is configured.
const defaultSpanCapacity = 1 << 16

// Tracer collects finished spans into a fixed-capacity ring buffer; when
// full, the oldest spans are overwritten (Dropped counts them). All methods
// are safe for concurrent use and safe on a nil receiver.
type Tracer struct {
	epoch time.Time
	base  uint64        // random high bits, for cross-process ID uniqueness
	next  atomic.Uint64 // low bits: per-tracer allocation counter

	mu      sync.Mutex
	ring    []Span
	head    int // next write position
	size    int // valid spans in ring
	dropped uint64
}

// NewTracer creates a tracer holding at most capacity finished spans
// (DefaultSpanCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	var seed [8]byte
	_, _ = rand.Read(seed[:])
	return NewTracerWithBase(capacity, binary.LittleEndian.Uint64(seed[:]))
}

// NewTracerWithBase creates a tracer whose ID base comes from the given
// value instead of process randomness, so two runs replaying the same
// inputs mint identical span IDs (the simulator's seed-replay pin test
// depends on this). Only the high 24 bits of base are used; the low 40
// bits stay reserved for the per-tracer allocation counter, and a base
// with empty high bits falls back to 1<<40 to keep IDs nonzero.
func NewTracerWithBase(capacity int, base uint64) *Tracer {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	// Keep the low 40 bits for the counter; the high 24 bits distinguish
	// processes so a device trace ID cannot collide with an edge span ID.
	base &^= (1 << 40) - 1
	if base == 0 {
		base = 1 << 40
	}
	return &Tracer{epoch: time.Now(), base: base, ring: make([]Span, 0, capacity)}
}

// Now returns the tracer clock: wall seconds since the tracer's epoch.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Seconds()
}

// NewID allocates a fresh span/trace ID (0 on a nil tracer).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.base | (t.next.Add(1) & ((1 << 40) - 1))
}

// Record appends a finished span (dropped silently on a nil tracer).
// Callers that measure time themselves — the simulator, or retroactive
// queue/compute spans derived from executor timings — build the Span
// directly and Record it.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		t.size++
	} else {
		t.ring[t.head] = s
		if t.size < len(t.ring) {
			t.size++
		} else {
			t.dropped++
		}
	}
	t.head = (t.head + 1) % cap(t.ring)
	t.mu.Unlock()
}

// Active is an in-flight span started on the tracer's wall clock. Methods
// are safe on a nil receiver (the disabled path).
type Active struct {
	t    *Tracer
	span Span
}

// StartSpan opens a span under parent; a zero parent starts a new trace.
// Returns nil (a valid no-op) on a nil tracer.
func (t *Tracer) StartSpan(parent SpanContext, name string) *Active {
	if t == nil {
		return nil
	}
	a := &Active{t: t, span: Span{
		Span:   t.NewID(),
		Parent: parent.Span,
		Trace:  parent.Trace,
		Name:   name,
		Start:  t.Now(),
	}}
	if a.span.Trace == 0 {
		a.span.Trace = a.span.Span
	}
	return a
}

// Context returns the span's portable reference (zero on nil).
func (a *Active) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.Span}
}

// SetDevice annotates the span with its owning device.
func (a *Active) SetDevice(id string) *Active {
	if a != nil {
		a.span.Device = id
	}
	return a
}

// SetTask annotates the span with its task ID.
func (a *Active) SetTask(id uint64) *Active {
	if a != nil {
		a.span.Task = id
	}
	return a
}

// SetExit annotates the span with an exit stage.
func (a *Active) SetExit(exit int) *Active {
	if a != nil {
		a.span.Exit = exit
	}
	return a
}

// SetNote annotates the span with a short free-form note.
func (a *Active) SetNote(note string) *Active {
	if a != nil {
		a.span.Note = note
	}
	return a
}

// End closes the span at the tracer's current time and records it.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.span.End = a.t.Now()
	a.t.Record(a.span)
}

// Spans returns a snapshot of recorded spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.size)
	if t.size < cap(t.ring) {
		out = append(out, t.ring[:t.size]...)
		return out
	}
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// Dropped returns the number of spans overwritten before being read.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// reset discards all recorded spans (the ID space is not reset).
func (t *Tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.head, t.size = 0, 0
	t.dropped = 0
	t.mu.Unlock()
}

// WriteJSONL writes the recorded spans as JSON Lines, oldest first — the
// /debug/traces format, and the interchange format between testbed and
// simulator runs.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
