// Golden wire frames: the exact bytes of one envelope per frozen protocol
// message, committed in testdata/golden_frames.txt. Encoding must reproduce
// them byte for byte and decoding must give back the source value, so any
// change to the envelope, a codec ID or a field's encoding fails here first.
package rpc_test

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/runtime"
)

const goldenPath = "testdata/golden_frames.txt"

// goldenCase is one pinned envelope, named by its line in the golden file.
type goldenCase struct {
	name string
	env  rpc.TestEnvelope
}

// goldenCases builds one request envelope per wire.manifest entry, named by
// the body's type, plus the envelope shapes that carry no body or every
// optional section. Payloads are non-empty: an empty slice decodes as nil.
func goldenCases() []goldenCase {
	model := offload.ModelParams{
		Mu:    [3]float64{2e8, 8e8, 1e9},
		D:     [3]float64{3088, 65536, 8192},
		Sigma: [3]float64{0.4, 0.8, 1},
	}
	payload := []byte{0, 1, 2, 0x7f, 0x80, 0xff}
	bodies := []any{
		runtime.RegisterReq{DeviceID: "pi-1", FLOPS: 1.2e9, ArrivalMean: 10, Model: model},
		runtime.RegisterResp{ShareFLOPS: 1.5e10},
		runtime.FirstBlockReq{DeviceID: "pi-1", TaskID: 42, Payload: payload, ExitStage: 3},
		runtime.SecondBlockReq{DeviceID: "nano-2", TaskID: 300, Payload: payload, ExitStage: 2},
		runtime.ThirdBlockReq{TaskID: 1 << 40, Payload: payload, FLOPs: 3.6e9},
		runtime.TaskResp{TaskID: 42, ExitStage: 1},
		nil, nil, nil, // codec IDs 7, 8 and 9 are retired; the envelope ID is the position
		runtime.UnregisterReq{DeviceID: "nano-2"},
		runtime.UnregisterResp{RemainingTenants: 3},
		runtime.EdgeStatsReq{},
		// Map keys travel sorted, whatever order they were inserted in.
		runtime.EdgeStatsResp{Tenants: 3, PendingFirstBlock: -1,
			Shares: map[string]float64{"pi-2": 0.25, "nano-1": 0.5, "pi-1": 0.25}},
		runtime.HeartbeatReq{DeviceID: "pi-1"},
		runtime.HeartbeatResp{Ready: true, FLOPS: 6e10, Tenants: 2, BacklogSec: 0.125,
			Saturated: false, PendingFirstBlock: 4, ShareFLOPS: 3e10},
		runtime.StealReq{DeviceID: "pi-1", TaskID: 9, Payload: payload, ExitStage: 2, Hop: 1, Model: model},
		runtime.StageInstallReq{PipelineID: "resnet-34", Stage: 1, FLOPs: [3]float64{0, 1.1e9, 2.2e9},
			Hosted: [3]bool{false, true, false}, Deepest: 2, OutBytes: 100352, NextAddr: "127.0.0.1:7002"},
		runtime.StageInstallResp{Stage: 1},
		runtime.ActivationReq{PipelineID: "resnet-34", DeviceID: "pi-1", TaskID: 77, Stage: 2, ExitStage: 3, Payload: payload},
	}
	cases := make([]goldenCase, 0, len(bodies)+4)
	for i, body := range bodies {
		if body == nil {
			continue
		}
		cases = append(cases, goldenCase{fmt.Sprintf("%T", body), rpc.TestEnvelope{ID: uint64(i + 1), Body: body}})
	}
	return append(cases,
		goldenCase{"error-reply", rpc.TestEnvelope{ID: 300, IsReply: true, Err: "edge: busy", Code: "overloaded"}},
		goldenCase{"empty-envelope", rpc.TestEnvelope{}},
		goldenCase{"full-meta", rpc.TestEnvelope{ID: 1 << 33,
			Meta: rpc.Meta{TraceID: 0xfeedface, SpanID: 0x1234, Deadline: 1_700_000_000_123_456_789},
			Body: runtime.FirstBlockReq{DeviceID: "pi-1", TaskID: 5, Payload: payload, ExitStage: 1}}},
		goldenCase{"task-reply", rpc.TestEnvelope{ID: 42, IsReply: true, Body: runtime.TaskResp{TaskID: 42, ExitStage: 3}}},
	)
}

// readGolden parses the golden file: "name<TAB>hex" lines, '#' comments.
func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden frames: %v", err)
	}
	defer f.Close()
	frames := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexFrame, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		if _, dup := frames[name]; dup {
			t.Fatalf("golden %s listed twice", name)
		}
		frames[name] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read golden frames: %v", err)
	}
	return frames
}

// TestGoldenFrames pins the wire byte for byte: every case encodes to its
// committed frame, and every committed frame decodes to its case.
func TestGoldenFrames(t *testing.T) {
	runtime.RegisterMessages()
	golden := readGolden(t)
	cases := goldenCases()
	if len(golden) != len(cases) {
		t.Errorf("golden file has %d frames, the test builds %d", len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("no golden frame for %s", c.name)
			continue
		}
		got, err := rpc.MarshalFrame(c.env)
		if err != nil {
			t.Errorf("%s: marshal: %v", c.name, err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: frame bytes changed\n got %s\t%x\nwant %s\t%x", c.name, c.name, got, c.name, want)
		}
		back, err := rpc.UnmarshalFrame(want)
		if err != nil {
			t.Errorf("%s: unmarshal golden frame: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(back, c.env) {
			t.Errorf("%s: golden frame decodes to\n %#v\nwant %#v", c.name, back, c.env)
		}
	}
}

// TestGoldenFramesCoverManifest holds the case list against wire.manifest:
// every frozen message type has a golden frame.
func TestGoldenFramesCoverManifest(t *testing.T) {
	named := map[string]bool{}
	for _, c := range goldenCases() {
		named[c.name] = true
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "wire.manifest"))
	if err != nil {
		t.Fatalf("read wire.manifest: %v", err)
	}
	entries := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			t.Fatalf("malformed manifest line %q", line)
		}
		entries++
		typ := strings.TrimPrefix(fields[1], "leime/internal/")
		if !named[typ] {
			t.Errorf("manifest entry %s %s has no golden frame", fields[0], fields[1])
		}
	}
	if entries == 0 {
		t.Fatal("wire.manifest lists no codecs")
	}
}
