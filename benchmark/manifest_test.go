package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The limits are the builder contract's: a file outside them is refused
// before a single run.
func TestManifestMeetsTheContract(t *testing.T) {
	m := manifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is malformed", kind, n, u)
		}
		if better != "" && better != lower && better != higher {
			t.Errorf("%s %s: better %q", kind, n, better)
		}
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check("workload", w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(m.EndToEnd))
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check("end-to-end metric", d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, better lower) is missing")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		check("per-layer metric", d.Name, d.Unit, d.Better)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// BENCHMARK.json at the repository root is `-describe` written to a file; it
// must not drift from the build.
func TestBenchmarkJSONMatchesTheBuild(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var onDisk benchmarkManifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := manifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from -describe; regenerate it with: bash benchmark/run.sh -describe > BENCHMARK.json")
	}
}
