package main

import (
	"strings"
	"testing"

	"leime/internal/offload"
)

func validDevice() offload.Device {
	return offload.Device{FLOPS: 1e9, BandwidthBps: 1e7, LatencySec: 0.02, ArrivalMean: 5}
}

func validSlot() offload.Slot {
	return offload.Slot{Arrivals: 5, EdgeShareFLOPS: 1e10}
}

const validJSON = `{
  "name": "test",
  "arch": "squeezenet-1.0",
  "devices": [
    {"count": 2, "hardware": "pi", "rate": 4},
    {"hardware": "nano", "rate": 8, "policy": "cap"}
  ],
  "slots": 60
}`

func TestLoadValid(t *testing.T) {
	s, err := load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if s.Name != "test" || s.Arch != "squeezenet-1.0" {
		t.Errorf("header wrong: %+v", s)
	}
	if s.Simulator != "slot" {
		t.Errorf("default simulator = %q", s.Simulator)
	}
	if s.Devices[0].BandwidthMbps != 10 || s.Devices[0].LatencyMs != 20 {
		t.Errorf("device defaults not applied: %+v", s.Devices[0])
	}
	if s.Devices[0].Policy != "leime" {
		t.Errorf("default policy = %q", s.Devices[0].Policy)
	}
}

func TestLoadRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name, json string
	}{
		{"syntax", `{`},
		{"unknown field", `{"name":"x","devicez":[]}`},
		{"no devices", `{"name":"x","devices":[]}`},
		{"bad hardware", `{"name":"x","devices":[{"hardware":"gpu"}]}`},
		{"bad policy", `{"name":"x","devices":[{"policy":"magic"}]}`},
		{"bad fixed ratio", `{"name":"x","devices":[{"policy":"fixed:1.5"}]}`},
		{"bad simulator", `{"name":"x","simulator":"analog","devices":[{}]}`},
		{"bad arrivals", `{"name":"x","devices":[{"arrivals":"uniform"}]}`},
		{"short horizon", `{"name":"x","slots":3,"devices":[{}]}`},
		{"bad edge share", `{"name":"x","edge_share":2,"devices":[{}]}`},
		{"negative rate", `{"name":"x","devices":[{"rate":-1}]}`},
		{"negative count", `{"name":"x","devices":[{"count":-2}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := load(strings.NewReader(c.json)); err == nil {
				t.Errorf("accepted: %s", c.json)
			}
		})
	}
}

func TestRunSlotScenario(t *testing.T) {
	s, err := load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Devices != 3 {
		t.Errorf("Devices = %d, want 3 (count expansion)", res.Devices)
	}
	if res.MeanTCT <= 0 {
		t.Errorf("MeanTCT = %v", res.MeanTCT)
	}
	if res.Tasks <= 0 {
		t.Errorf("Tasks = %v", res.Tasks)
	}
}

func TestRunEventScenario(t *testing.T) {
	s, err := load(strings.NewReader(`{
	  "name": "event-test",
	  "devices": [{"hardware": "pi", "rate": 4, "arrivals": "constant"}],
	  "slots": 60,
	  "simulator": "event"
	}`))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.P99TCT <= 0 || res.P99TCT < res.MeanTCT {
		t.Errorf("P99 = %v vs mean %v", res.P99TCT, res.MeanTCT)
	}
	if res.Tasks != 4*60 {
		t.Errorf("Tasks = %v, want 240 (constant arrivals)", res.Tasks)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	fresh := func() *scenario {
		s, err := load(strings.NewReader(validJSON))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return s
	}
	a, err := fresh().run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := fresh().run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.MeanTCT != b.MeanTCT {
		t.Errorf("same scenario diverged: %v vs %v", a.MeanTCT, b.MeanTCT)
	}
}

func TestFixedPolicyParsing(t *testing.T) {
	p, err := offload.ParsePolicy("fixed:0.35")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	if got := p.Decide(nil, validDevice(), validSlot()); got != 0.35 {
		t.Errorf("fixed policy returned %v", got)
	}
	for _, name := range []string{"leime", "leime-centralized", "device-only", "edge-only", "cap"} {
		if _, err := offload.ParsePolicy(name); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
	// A NaN ratio would run and report a NaN mean TCT; trailing junk
	// would silently run as its numeric prefix.
	for _, name := range []string{"fixed:NaN", "fixed:0.5junk"} {
		if _, err := offload.ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
		doc := `{"devices":[{"policy":"` + name + `"}],"slots":20}`
		if _, err := load(strings.NewReader(doc)); err == nil {
			t.Errorf("scenario with policy %q accepted", name)
		}
	}
}

func TestDeadlineScenario(t *testing.T) {
	s, err := load(strings.NewReader(`{
	  "name": "deadline",
	  "devices": [{"hardware": "pi", "rate": 4}],
	  "slots": 60,
	  "simulator": "event",
	  "deadline_s": 0.01
	}`))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.DeadlineMissRate <= 0 || res.DeadlineMissRate > 1 {
		t.Errorf("brutal 10ms deadline should miss: rate %v", res.DeadlineMissRate)
	}
	if _, err := load(strings.NewReader(`{"name":"x","devices":[{}],"deadline_s":0.5}`)); err == nil {
		t.Error("deadline without event simulator accepted")
	}
	if _, err := load(strings.NewReader(`{"name":"x","devices":[{}],"simulator":"event","deadline_s":-1}`)); err == nil {
		t.Error("negative deadline accepted")
	}
}

func TestReplayScenario(t *testing.T) {
	s, err := load(strings.NewReader(`{
	  "name": "replay",
	  "devices": [{"hardware": "pi", "arrivals": "replay", "trace": [2,0,5,1], "rate": 2}],
	  "slots": 40,
	  "simulator": "event"
	}`))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The 4-slot trace cycles over 40 slots: exactly 10 * (2+0+5+1) tasks.
	if res.Tasks != 80 {
		t.Errorf("Tasks = %v, want 80 (replayed trace)", res.Tasks)
	}
	if _, err := load(strings.NewReader(`{"name":"x","devices":[{"arrivals":"replay"}]}`)); err == nil {
		t.Error("replay without trace accepted")
	}
	if _, err := load(strings.NewReader(`{"name":"x","devices":[{"arrivals":"replay","trace":[-1]}]}`)); err == nil {
		t.Error("negative trace accepted")
	}
}

// FuzzLoad feeds arbitrary JSON to the scenario loader: it must never panic,
// and anything it accepts must validate cleanly a second time (idempotent
// defaulting).
func FuzzLoad(f *testing.F) {
	f.Add(validJSON)
	f.Add(`{}`)
	f.Add(`{"name":"x","devices":[{}]}`)
	f.Add(`{"devices":[{"count":1000000}]}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"name":"x","devices":[{"policy":"fixed:0.5"}],"simulator":"event"}`)
	f.Add(`{"devices":[{"policy":"fixed:NaN"}],"slots":20}`)

	f.Fuzz(func(t *testing.T, data string) {
		s, err := load(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("accepted scenario fails re-validation: %v", err)
		}
		if len(s.Devices) == 0 || s.Slots < 10 {
			t.Fatalf("accepted scenario with bad defaults: %+v", s)
		}
	})
}
