package main

import (
	"testing"

	"leime/internal/telemetry"
)

// A hand-built five-span trace with known self times:
//
//	task  [0,10]  children A, B, D            self 10 - |[1,7] u [8,10]| = 2
//	A     [1,4]                               self 3
//	B     [3,7]   overlaps A on [3,4]; child C self 4 - 2 = 2
//	C     [4,6]                               self 2
//	D     [8,12]  sticks out of its parent    self 4, covers [8,10] of the root
func TestFoldSelfTime(t *testing.T) {
	spans := []telemetry.Span{
		{Trace: 1, Span: 1, Name: "task", Start: 0, End: 10},
		{Trace: 1, Span: 2, Parent: 1, Name: "A", Start: 1, End: 4},
		{Trace: 1, Span: 3, Parent: 1, Name: "B", Start: 3, End: 7},
		{Trace: 1, Span: 4, Parent: 3, Name: "C", Start: 4, End: 6},
		{Trace: 1, Span: 5, Parent: 1, Name: "D", Start: 8, End: 12},
	}
	f := foldSelfTime(spans)
	want := map[string]float64{"task": 2, "A": 3, "B": 2, "C": 2, "D": 4}
	for name, self := range want {
		got := f.byName[name]
		if got == nil || !near(got.self, self) {
			t.Errorf("self time of %s = %+v, want %v", name, got, self)
		}
	}
	if f.tasks != 1 || !near(f.rootTotal, 10) || !near(f.unattributed, 2) {
		t.Errorf("tasks %d, root %v, unattributed %v; want 1, 10, 2", f.tasks, f.rootTotal, f.unattributed)
	}
	if got := f.perTaskUS(pickSelf, "A", "B", "absent"); !near(got, 5e6) {
		t.Errorf("per-task self of A+B = %v us, want 5e6", got)
	}
	if got := f.perTaskUS(pickTotal, "D"); !near(got, 4e6) {
		t.Errorf("per-task total of D = %v us, want 4e6", got)
	}
}

// Nested children inside their parents: the self times of a trace add up to
// the root's duration, which is what makes the layer table additive.
func TestSelfTimesAddUp(t *testing.T) {
	spans := []telemetry.Span{
		{Trace: 1, Span: 1, Name: "task", Start: 0, End: 9},
		{Trace: 1, Span: 2, Parent: 1, Name: "rpc", Start: 1, End: 8},
		{Trace: 1, Span: 3, Parent: 2, Name: "queue", Start: 2, End: 4},
		{Trace: 1, Span: 4, Parent: 2, Name: "block", Start: 4, End: 7},
	}
	f := foldSelfTime(spans)
	var sum float64
	for _, t := range f.byName {
		sum += t.self
	}
	if !near(sum, f.rootTotal) {
		t.Errorf("self times sum to %v, root lasted %v", sum, f.rootTotal)
	}
}
