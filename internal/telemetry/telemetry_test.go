package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.NewID() != 0 {
		t.Error("nil tracer allocated an ID")
	}
	a := tr.StartSpan(SpanContext{}, "task")
	a.SetDevice("d").SetTask(1).SetExit(2).SetNote("x")
	if a.Context().Valid() {
		t.Error("nil active span has a valid context")
	}
	a.End()
	tr.Record(Span{Name: "x"})
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer holds spans: %v", got)
	}
	if tr.Dropped() != 0 || tr.Now() != 0 {
		t.Error("nil tracer reports non-zero state")
	}
	tr.reset()
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

func TestSpanLifecycleAndInheritance(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartSpan(SpanContext{}, "task").SetDevice("pi-1").SetTask(7)
	child := tr.StartSpan(root.Context(), "device.block1")
	time.Sleep(time.Millisecond)
	child.End()
	root.SetExit(3).End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Trace != r.Trace {
		t.Errorf("child trace %d != root trace %d", c.Trace, r.Trace)
	}
	if c.Parent != r.Span {
		t.Errorf("child parent %d != root span %d", c.Parent, r.Span)
	}
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if r.Trace != r.Span {
		t.Errorf("trace root should use its span ID as trace ID")
	}
	if c.End < c.Start || c.End-c.Start < 0.0005 {
		t.Errorf("child bounds [%v, %v] do not cover the sleep", c.Start, c.End)
	}
	if r.Device != "pi-1" || r.Task != 7 || r.Exit != 3 {
		t.Errorf("root annotations lost: %+v", r)
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 6; i++ {
		tr.Record(Span{Name: "s", Task: uint64(i)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(i + 3); s.Task != want {
			t.Errorf("spans[%d].Task = %d, want %d (oldest-first order)", i, s.Task, want)
		}
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	tr.reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.StartSpan(SpanContext{}, "task")
				tr.StartSpan(s.Context(), "child").End()
				s.End()
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans)+int(tr.Dropped()) != 8*200*2 {
		t.Errorf("spans %d + dropped %d != %d", len(spans), tr.Dropped(), 8*200*2)
	}
	seen := make(map[uint64]bool)
	for _, s := range spans {
		if s.Span == 0 {
			t.Fatal("zero span ID")
		}
		if seen[s.Span] {
			t.Fatalf("duplicate span ID %d", s.Span)
		}
		seen[s.Span] = true
	}
}

func TestWriteJSONLSchema(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Trace: 1, Span: 2, Parent: 1, Name: "edge.queue", Device: "pi-1", Task: 9, Start: 1.5, End: 2.25})
	tr.Record(Span{Trace: 1, Span: 3, Name: "exit", Exit: 2, Start: 2.25, End: 2.25})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	// The shared event schema: these exact keys let one tool diff testbed
	// and simulator runs.
	for _, key := range []string{"trace", "span", "name", "start", "end"} {
		if _, ok := lines[0][key]; !ok {
			t.Errorf("line 0 missing schema key %q", key)
		}
	}
	if lines[0]["name"] != "edge.queue" || lines[0]["device"] != "pi-1" {
		t.Errorf("line 0 fields wrong: %v", lines[0])
	}
	if _, ok := lines[1]["parent"]; ok {
		t.Error("zero parent should be omitted")
	}
	if lines[1]["exit"] != float64(2) {
		t.Errorf("exit = %v, want 2", lines[1]["exit"])
	}
}

func TestNewIDDistinctAcrossTracers(t *testing.T) {
	// Different tracers (different processes in deployment) must not mint
	// overlapping IDs: the random high bits keep device trace IDs from
	// colliding with edge span IDs.
	a, b := NewTracer(4), NewTracer(4)
	if a.base == b.base {
		t.Skip("random bases collided (1 in 2^24); rerun")
	}
	idsA := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		idsA[a.NewID()] = true
	}
	for i := 0; i < 100; i++ {
		if idsA[b.NewID()] {
			t.Fatal("ID collision across tracers")
		}
	}
}

func TestSpanContextValid(t *testing.T) {
	if (SpanContext{}).Valid() {
		t.Error("zero context valid")
	}
	if !(SpanContext{Trace: 1, Span: 2}).Valid() {
		t.Error("non-zero context invalid")
	}
}

func TestStartSpanInheritsExplicitParent(t *testing.T) {
	tr := NewTracer(4)
	// A remote parent (arrived via the rpc envelope) is adopted verbatim.
	remote := SpanContext{Trace: 42, Span: 17}
	s := tr.StartSpan(remote, "edge.block1")
	s.End()
	got := tr.Spans()[0]
	if got.Trace != 42 || got.Parent != 17 {
		t.Errorf("remote parent not adopted: %+v", got)
	}
}
