package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric.
type Label struct {
	Key, Value string
}

// defBuckets are the default latency histogram bounds in seconds, spanning
// sub-millisecond compute bursts to multi-second queue blowups.
var defBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing event count. Increments are a
// single atomic add; a nil counter (from a nil registry) is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n events.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: cumulative bucket counts,
// a running sum and a count, all updated with atomics. Memory is fixed at
// construction — a million-task run costs the same bytes as an empty one.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (≈13): linear scan beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		cur := math.Float64frombits(old)
		if h.sum.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric is one sample owner within a family.
type metric struct {
	labels string // rendered {k="v",...} suffix, "" for unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // scrape-time gauge callback (GaugeFunc)
}

// family groups all label variants of one metric name.
type family struct {
	name, help, typ string
	metrics         []*metric
	byLabel         map[string]*metric
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Lookups take a mutex; the returned Counter/Gauge/
// Histogram handles are lock-free on the hot path, so callers cache them.
// A nil registry returns nil handles, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

func (f *family) metric(labels []Label) *metric {
	key := renderLabels(labels)
	m, ok := f.byLabel[key]
	if !ok {
		m = &metric{labels: key}
		f.byLabel[key] = m
		f.metrics = append(f.metrics, m)
	}
	return m
}

// Counter returns (creating on first use) the counter for name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, "counter").metric(labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns (creating on first use) the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, "gauge").metric(labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// GaugeFunc registers a gauge whose value fn computes at scrape time —
// for state that already lives in someone else's counters (the rpc wire
// codec's atomics, queue depths) where a stored Gauge would just be a
// stale copy. fn must be safe to call from any goroutine. The first
// callback registered for a name+labels wins; later calls are no-ops, so
// re-registration on reconnect is safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, "gauge").metric(labels)
	if m.fn == nil && m.g == nil {
		m.fn = fn
	}
}

// Histogram returns (creating on first use) the histogram for name+labels.
// buckets must be strictly increasing; nil uses DefBuckets. The bucket
// layout is fixed by the first call for a given name+labels.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = defBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.family(name, help, "histogram").metric(labels)
	if m.h == nil {
		bounds := append([]float64(nil), buckets...)
		m.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return m.h
}

// renderLabels renders a deterministic {k="v",...} suffix ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// withLabel splices an extra label into an already-rendered label suffix
// (used for histogram le labels).
func withLabel(rendered, key, value string) string {
	extra := key + `="` + value + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatValue(v float64) string {
	if v == math.Inf(1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families in registration order, label variants in
// creation order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, m := range f.metrics {
			var err error
			switch {
			case m.c != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, m.labels, m.c.Value())
			case m.g != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, m.labels, formatValue(m.g.Value()))
			case m.fn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, m.labels, formatValue(m.fn()))
			case m.h != nil:
				err = writeHistogram(w, f.name, m)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, m *metric) error {
	var cum uint64
	for i, bound := range m.h.bounds {
		cum += m.h.counts[i].Load()
		le := withLabel(m.labels, "le", formatValue(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += m.h.counts[len(m.h.bounds)].Load()
	le := withLabel(m.labels, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, m.labels, formatValue(m.h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, m.labels, m.h.Count())
	return err
}

// sample is one flattened metric value from a registry snapshot; histograms
// flatten to _count and _sum samples. Used by machine-readable reports
// (leime-bench -json).
type sample struct {
	// Name is the metric name, with _count/_sum suffixes for histograms.
	Name string `json:"name"`
	// Labels is the rendered {k="v"} suffix ("" when unlabelled).
	Labels string `json:"labels,omitempty"`
	// Value is the sample value.
	Value float64 `json:"value"`
}

// samples snapshots every metric as flattened samples, in registration
// order.
func (r *Registry) samples() []sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sample
	for _, name := range r.order {
		f := r.families[name]
		for _, m := range f.metrics {
			switch {
			case m.c != nil:
				out = append(out, sample{Name: f.name, Labels: m.labels, Value: float64(m.c.Value())})
			case m.g != nil:
				out = append(out, sample{Name: f.name, Labels: m.labels, Value: m.g.Value()})
			case m.fn != nil:
				out = append(out, sample{Name: f.name, Labels: m.labels, Value: m.fn()})
			case m.h != nil:
				out = append(out, sample{Name: f.name + "_count", Labels: m.labels, Value: float64(m.h.Count())})
				out = append(out, sample{Name: f.name + "_sum", Labels: m.labels, Value: m.h.Sum()})
			}
		}
	}
	return out
}
