package runtime

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// TestEdgeTaskPaths pins the edge's task path for every request kind, exit
// and cloud state: the exit the edge answers at, and the edge.block1,
// edge.block2 and rpc.cloud spans the request leaves under the caller's
// trace. A first block and a stolen task run blocks 1 and 2; a second block
// runs block 2; an exit-3 task then crosses to the cloud and degrades to
// exit 2 when the cloud is absent or unreachable.
func TestEdgeTaskPaths(t *testing.T) {
	tr := telemetry.NewTracer(4096)
	srv, err := StartCloud(testCloudConfig())
	if err != nil {
		t.Fatalf("StartCloud: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	clients := map[string]*rpc.Client{}
	for state, addr := range map[string]string{"up": srv.Addr(), "absent": "", "unreachable": "127.0.0.1:1"} {
		e := startFederatedEdge(t, EdgeConfig{
			Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
			CloudAddr: addr, Tracer: tr,
		})
		clients[state] = registerAt(t, e.Addr(), "dev")
	}

	const b1, b2, rc = "edge.block1", "edge.block2", "rpc.cloud"
	for i, c := range []struct {
		kind, cloud string
		exit        int
		wantExit    int
		wantSpans   []string
	}{
		{"first", "up", 1, 1, []string{b1}},
		{"first", "up", 2, 2, []string{b1, b2}},
		{"first", "up", 3, 3, []string{b1, b2, rc}},
		{"first", "absent", 1, 1, []string{b1}},
		{"first", "absent", 2, 2, []string{b1, b2}},
		{"first", "absent", 3, 2, []string{b1, b2}},
		{"first", "unreachable", 1, 1, []string{b1}},
		{"first", "unreachable", 2, 2, []string{b1, b2}},
		{"first", "unreachable", 3, 2, []string{b1, b2, rc}},
		{"second", "up", 1, 1, nil},
		{"second", "up", 2, 2, []string{b2}},
		{"second", "up", 3, 3, []string{b2, rc}},
		{"second", "absent", 1, 1, nil},
		{"second", "absent", 2, 2, []string{b2}},
		{"second", "absent", 3, 2, []string{b2}},
		{"second", "unreachable", 1, 1, nil},
		{"second", "unreachable", 2, 2, []string{b2}},
		{"second", "unreachable", 3, 2, []string{b2, rc}},
		{"steal", "up", 1, 1, []string{b1}},
		{"steal", "up", 2, 2, []string{b1, b2}},
		{"steal", "up", 3, 3, []string{b1, b2, rc}},
		{"steal", "absent", 1, 1, []string{b1}},
		{"steal", "absent", 2, 2, []string{b1, b2}},
		{"steal", "absent", 3, 2, []string{b1, b2}},
		{"steal", "unreachable", 1, 1, []string{b1}},
		{"steal", "unreachable", 2, 2, []string{b1, b2}},
		{"steal", "unreachable", 3, 2, []string{b1, b2, rc}},
	} {
		name := fmt.Sprintf("%s/exit %d/cloud %s", c.kind, c.exit, c.cloud)
		task := uint64(i + 1)
		var req any
		switch c.kind {
		case "first":
			req = FirstBlockReq{DeviceID: "dev", TaskID: task, Payload: []byte{1}, ExitStage: c.exit}
		case "second":
			req = SecondBlockReq{DeviceID: "dev", TaskID: task, Payload: []byte{1}, ExitStage: c.exit}
		case "steal":
			req = StealReq{DeviceID: "dev", TaskID: task, Payload: []byte{1}, ExitStage: c.exit, Hop: 1, Model: testModel()}
		}
		root := tr.StartSpan(telemetry.SpanContext{}, "task").SetTask(task)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		got, err := clients[c.cloud].CallMeta(ctx, spanMeta(root), req)
		cancel()
		root.End()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if resp, ok := got.(TaskResp); !ok || resp.ExitStage != c.wantExit {
			t.Errorf("%s: answered %#v, want exit %d", name, got, c.wantExit)
		}
		var spans []string
		for _, s := range tr.Spans() {
			if s.Trace == root.Context().Trace && (s.Name == b1 || s.Name == b2 || s.Name == rc) {
				spans = append(spans, s.Name)
			}
		}
		sort.Strings(spans)
		if strings.Join(spans, " ") != strings.Join(c.wantSpans, " ") {
			t.Errorf("%s: spans %v, want %v", name, spans, c.wantSpans)
		}
	}
}
