package main

import (
	"sort"

	"leime/internal/telemetry"
)

// spanTotals aggregates every span of one name across a trace file.
type spanTotals struct {
	count int
	// total is the summed duration and self the summed self time, seconds.
	total, self float64
	// durs keeps each span's duration for percentiles.
	durs []float64
}

// folded is a trace file reduced to per-name totals.
type folded struct {
	byName map[string]*spanTotals
	// tasks is the number of root spans (one per traced task); rootTotal is
	// their summed duration and unattributed their summed self time — root
	// time no child span covers.
	tasks                   int
	rootTotal, unattributed float64
}

// foldSelfTime reduces spans to per-name totals. A span's self time is its
// duration minus the part of its interval its direct children cover
// (children clipped to the parent, overlaps counted once). Summed over every
// span of a trace, self times add up to the root's duration when children
// nest inside their parents, which is what lets a layer's mean self time per
// task be read as that layer's additive share of mean TCT.
func foldSelfTime(spans []telemetry.Span) folded {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := folded{byName: map[string]*spanTotals{}}
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		self := dur - covered(s, spans, children[s.Span])
		t := out.byName[s.Name]
		if t == nil {
			t = &spanTotals{}
			out.byName[s.Name] = t
		}
		t.count++
		t.total += dur
		t.self += self
		t.durs = append(t.durs, dur)
		if s.Parent == 0 {
			out.tasks++
			out.rootTotal += dur
			out.unattributed += self
		}
	}
	return out
}

// covered returns how much of parent's interval the listed child spans
// cover, in seconds.
func covered(parent telemetry.Span, spans []telemetry.Span, kids []int) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum float64
	end := parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// perTaskUS is a name's summed value (picked by f) divided by the number of
// traced tasks, in microseconds; 0 when the name never occurred.
func (f folded) perTaskUS(pick func(*spanTotals) float64, names ...string) float64 {
	if f.tasks == 0 {
		return 0
	}
	var sum float64
	for _, n := range names {
		if t := f.byName[n]; t != nil {
			sum += pick(t)
		}
	}
	return sum / float64(f.tasks) * 1e6
}

func pickSelf(t *spanTotals) float64  { return t.self }
func pickTotal(t *spanTotals) float64 { return t.total }
