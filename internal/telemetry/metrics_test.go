package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil registry handles accumulated state")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if r.samples() != nil {
		t.Error("nil registry has samples")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks_total", "Tasks.", Label{"device", "pi-1"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same counter.
	if c2 := r.Counter("tasks_total", "Tasks.", Label{"device", "pi-1"}); c2 != c {
		t.Error("counter identity not stable")
	}
	// Different labels are a different series.
	other := r.Counter("tasks_total", "Tasks.", Label{"device", "pi-2"})
	if other == c || other.Value() != 0 {
		t.Error("label variants share state")
	}
	g := r.Gauge("tenants", "Tenants.")
	g.Set(2)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // first bucket
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.3) // third bucket
	}
	h.Observe(5) // overflow
	if h.Count() != 201 {
		t.Errorf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 100*0.05+100*0.3+5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Each observation lands in its bucket; the last is the overflow.
	for i, want := range []uint64{100, 0, 100, 0, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("d_seconds", "", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-80) > 1e-6 {
		t.Errorf("histogram sum = %v, want 80", h.Sum())
	}
}

// validatePrometheus is a strict checker for the text exposition format
// (version 0.0.4): TYPE before samples, legal metric names, parseable
// values, and for histograms cumulative buckets ending in +Inf == _count.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	types := map[string]string{}
	bucketCum := map[string]float64{} // per series: last cumulative bucket
	bucketInf := map[string]float64{}
	counts := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			name, typ := parts[2], parts[3]
			if !nameRe.MatchString(name) {
				t.Fatalf("bad metric name %q", name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad type %q", typ)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment %q", line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		name, labels, vals := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(vals, 64)
		if err != nil && vals != "+Inf" && vals != "-Inf" && vals != "NaN" {
			t.Fatalf("bad value %q in %q", vals, line)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if typ, ok := types[strings.TrimSuffix(name, suffix)]; ok && typ == "histogram" {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q before its TYPE declaration", line)
		}
		if types[base] == "histogram" {
			series := base + stripLE(labels)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !strings.Contains(labels, `le="`) {
					t.Fatalf("bucket without le label: %q", line)
				}
				if val < bucketCum[series] {
					t.Fatalf("non-cumulative bucket in %q", line)
				}
				bucketCum[series] = val
				if strings.Contains(labels, `le="+Inf"`) {
					bucketInf[series] = val
				}
			case strings.HasSuffix(name, "_count"):
				counts[series] = val
			}
		}
	}
	for series, inf := range bucketInf {
		if counts[series] != inf {
			t.Errorf("series %s: +Inf bucket %v != count %v", series, inf, counts[series])
		}
	}
	if len(bucketInf) == 0 && len(bucketCum) > 0 {
		t.Error("histogram without +Inf bucket")
	}
}

// stripLE removes the le label from a rendered label set so buckets of one
// series share a key.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, part := range strings.Split(inner, ",") {
		if !strings.HasPrefix(part, `le="`) {
			kept = append(kept, part)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("leime_tasks_total", "Tasks generated.", Label{"device", "pi-1"}).Add(42)
	r.Counter("leime_tasks_total", "Tasks generated.", Label{"device", `we"ird\n`}).Inc()
	r.Gauge("leime_edge_tenants", "Registered tenants.").Set(3)
	h := r.Histogram("leime_tct_seconds", "Task completion time.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	validatePrometheus(t, text)

	for _, want := range []string{
		`leime_tasks_total{device="pi-1"} 42`,
		"# TYPE leime_tasks_total counter",
		"# TYPE leime_tct_seconds histogram",
		`leime_tct_seconds_bucket{le="+Inf"} 3`,
		"leime_tct_seconds_count 3",
		"leime_edge_tenants 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Label escaping round-trips backslashes and quotes.
	if !strings.Contains(text, `device="we\"ird\\n"`) {
		t.Errorf("label escaping wrong:\n%s", text)
	}
}

func TestSamplesFlattening(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Gauge("b", "").Set(1.5)
	h := r.Histogram("c_seconds", "", nil)
	h.Observe(0.2)
	h.Observe(0.4)
	got := r.samples()
	want := map[string]float64{"a_total": 2, "b": 1.5, "c_seconds_count": 2, "c_seconds_sum": 0.6}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d: %+v", len(got), len(want), got)
	}
	for _, s := range got {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected sample %q", s.Name)
			continue
		}
		if math.Abs(s.Value-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", s.Name, s.Value, w)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.001)
	}
}

func BenchmarkStartSpanEnd(b *testing.B) {
	tr := NewTracer(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartSpan(SpanContext{}, "task").End()
	}
}

func BenchmarkStartSpanEndDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartSpan(SpanContext{}, "task").End()
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("leime_requests_total", "Requests served.", Label{"type", "first_block"}).Add(7)
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP leime_requests_total Requests served.
	// # TYPE leime_requests_total counter
	// leime_requests_total{type="first_block"} 7
}

// TestGaugeFunc checks scrape-time gauges: the callback is evaluated at
// render/snapshot time, the first registration wins, and a nil registry
// or nil callback is a no-op.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("wire_frames", "Frames by codec.", func() float64 { return v }, Label{"codec", "binary"})
	r.GaugeFunc("wire_frames", "Frames by codec.", func() float64 { return -1 }, Label{"codec", "binary"}) // loser
	samples := r.samples()
	if len(samples) != 1 || samples[0].Value != 1.5 {
		t.Fatalf("Samples = %+v, want one sample of 1.5", samples)
	}
	v = 7 // the callback, not a copy, is scraped
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := "# HELP wire_frames Frames by codec.\n# TYPE wire_frames gauge\nwire_frames{codec=\"binary\"} 7\n"
	if buf.String() != want {
		t.Errorf("exposition:\n%q\nwant:\n%q", buf.String(), want)
	}
	// A plain Gauge already owning the slot is not displaced.
	g := r.Gauge("depth", "Queue depth.")
	g.Set(3)
	r.GaugeFunc("depth", "Queue depth.", func() float64 { return 9 })
	for _, s := range r.samples() {
		if s.Name == "depth" && s.Value != 3 {
			t.Errorf("GaugeFunc displaced stored gauge: %v", s.Value)
		}
	}
	var nilReg *Registry
	nilReg.GaugeFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("y", "", nil)
}
