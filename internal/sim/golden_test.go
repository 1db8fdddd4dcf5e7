package sim

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"leime/internal/control"
	"leime/internal/telemetry"
)

// eventsGoldenPath pins RunEvents end to end: one row per configuration,
// holding its counters, its TCT mean and p99 to the last bit, and a digest
// of every per-slot series, station utilization and recorded span.
const eventsGoldenPath = "testdata/events_golden.txt"

// eventsGoldenCase is one pinned RunEvents configuration.
type eventsGoldenCase struct {
	name string
	cfg  func() EventConfig
}

func eventsGoldenCases() []eventsGoldenCase {
	return []eventsGoldenCase{
		{"plain", func() EventConfig { return baseEventConfig(3, 6) }},
		{"static-batch", func() EventConfig {
			return batchSimConfig(control.Batch{MaxSize: 8, MaxDelaySec: 0.05})
		}},
		{"adaptive-window", func() EventConfig {
			return policySimConfig(control.Policy{AdaptiveBatch: true, TargetP99Sec: 1}, 0)
		}},
		{"backlog-budget", func() EventConfig {
			return policySimConfig(control.Policy{MaxBacklogSec: 0.1}, 0)
		}},
		{"deadline-admission", func() EventConfig {
			return policySimConfig(control.Policy{DeadlineAdmission: true}, 1.5)
		}},
		{"traced", func() EventConfig {
			cfg := baseEventConfig(2, 4)
			cfg.Slots = 40
			cfg.WarmupSlots = 5
			cfg.Tracer = telemetry.NewTracerWithBase(1<<16, 1<<40)
			return cfg
		}},
		{"link-schedule", func() EventConfig {
			cfg := baseEventConfig(2, 6)
			for i := range cfg.Devices {
				cfg.Devices[i].Link = func(slot int) (float64, float64) {
					if slot%20 < 10 {
						return 2e6, 0.05
					}
					return 2e7, 0.01
				}
			}
			return cfg
		}},
		{"batch-budget", func() EventConfig {
			return policySimConfig(control.Policy{
				Batch:         control.Batch{MaxSize: 8, MaxDelaySec: 0.05},
				MaxBacklogSec: 0.5,
			}, 0)
		}},
		{"edf", func() EventConfig {
			return policySimConfig(control.Policy{EDF: true}, 1.5)
		}},
		{"adaptive-budget-deadline", func() EventConfig {
			return policySimConfig(control.Policy{
				MaxBacklogSec:     0.5,
				DeadlineAdmission: true,
				AdaptiveBatch:     true,
				TargetP99Sec:      1,
			}, 2)
		}},
	}
}

// eventsGoldenRow renders one run as its golden line.
func eventsGoldenRow(name string, res *EventResult, tr *telemetry.Tracer) string {
	h := sha256.New()
	fmt.Fprintf(h, "slot_tct %.17g\n", res.SlotTCT.Values)
	fmt.Fprintf(h, "ratio %.17g\n", res.Ratio.Values)
	stations := make([]string, 0, len(res.Utilization))
	for st := range res.Utilization {
		stations = append(stations, st)
	}
	sort.Strings(stations)
	for _, st := range stations {
		fmt.Fprintf(h, "util %s %.17g\n", st, res.Utilization[st])
	}
	for _, s := range tr.Spans() {
		fmt.Fprintf(h, "span %x %x %x %s %s %d %d %s %.17g %.17g\n",
			s.Trace, s.Span, s.Parent, s.Name, s.Device, s.Task, s.Exit, s.Note, s.Start, s.End)
	}
	return fmt.Sprintf("%s\tgenerated=%d completed=%d exits=%d,%d,%d fallbacks=%d sheds=%d misses=%d tct_mean=%.17g tct_p99=%.17g digest=%x",
		name, res.Generated, res.Completed, res.ExitCounts[0], res.ExitCounts[1], res.ExitCounts[2],
		res.Fallbacks, res.Sheds, res.DeadlineMisses, res.TCT.Mean(), res.TCT.Percentile(99), h.Sum(nil)[:16])
}

// readEventsGolden parses the golden file: "name<TAB>fields" lines, '#'
// comments.
func readEventsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(eventsGoldenPath)
	if err != nil {
		t.Fatalf("open golden: %v", err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		if _, dup := rows[name]; dup {
			t.Fatalf("golden %s listed twice", name)
		}
		rows[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return rows
}

// TestRunEventsGolden requires every configuration to reproduce its golden
// row byte for byte, and the file to hold no row the test does not build.
func TestRunEventsGolden(t *testing.T) {
	golden := readEventsGolden(t)
	cases := eventsGoldenCases()
	if len(golden) != len(cases) {
		t.Errorf("golden file has %d rows, the test builds %d", len(golden), len(cases))
	}
	for _, c := range cases {
		cfg := c.cfg()
		res, err := RunEvents(cfg)
		if err != nil {
			t.Errorf("%s: RunEvents: %v", c.name, err)
			continue
		}
		if cfg.Tracer != nil && cfg.Tracer.Dropped() != 0 {
			t.Errorf("%s: tracer dropped %d spans", c.name, cfg.Tracer.Dropped())
		}
		got := eventsGoldenRow(c.name, res, cfg.Tracer)
		if want, ok := golden[c.name]; !ok {
			t.Errorf("no golden row for %s; got\n%s", c.name, got)
		} else if got != want {
			t.Errorf("%s: row changed\n got %s\nwant %s", c.name, got, want)
		}
	}
}
