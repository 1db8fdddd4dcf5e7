package runtime

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// TestServerStateSurvivesFrameRecycling pins what an edge keeps from a
// request once the request's frame buffer has gone back to the pool and
// been overwritten: the tenant map key (RegisterReq), the installed
// pipeline ID and next-hop address (StageInstallReq) and the Device label
// of recorded spans (a traced FirstBlockReq). All four are strings decoded
// from the frame; they must be copies.
func TestServerStateSurvivesFrameRecycling(t *testing.T) {
	RegisterMessages()
	tr := telemetry.NewTracer(64)
	start := func(tracer *telemetry.Tracer) *Edge {
		e, err := StartEdge(EdgeConfig{Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale, Tracer: tracer})
		if err != nil {
			t.Fatalf("StartEdge: %v", err)
		}
		t.Cleanup(func() { _ = e.Close() })
		return e
	}
	last := start(nil)
	edge := start(tr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Everything below reaches the edge over TCP, so every string it keeps
	// was decoded out of a pooled request frame.
	const pipeID = "pipe-aaa"
	stages := []PipelineStage{
		{FLOPs: [3]float64{1e6, 1e6, 1e6}, Hosted: [3]bool{true, false, false}, Deepest: 1, OutBytes: 2048},
		{FLOPs: [3]float64{0, 1e6, 1e6}, Hosted: [3]bool{false, true, true}, Deepest: 3},
	}
	if err := InstallPipeline(ctx, pipeID, []string{edge.Addr(), last.Addr()}, stages); err != nil {
		t.Fatalf("InstallPipeline: %v", err)
	}
	c, err := rpc.Dial(edge.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for _, id := range []string{"tenant-a", "tenant-b"} {
		if _, err := c.Call(ctx, RegisterReq{DeviceID: id, FLOPS: 1e9, ArrivalMean: 1}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	traced := rpc.Meta{TraceID: 77, SpanID: 1}
	if _, err := c.CallMeta(ctx, traced, FirstBlockReq{DeviceID: "tenant-a", TaskID: 1, Payload: zeroPayload(3000), ExitStage: 1}); err != nil {
		t.Fatalf("traced first block: %v", err)
	}

	// Recycle: same-class frames from another tenant, 0xFF where the earlier
	// frames held their strings.
	dirt := bytes.Repeat([]byte{0xff}, 3000)
	for i := 0; i < 256; i++ {
		if _, err := c.Call(ctx, FirstBlockReq{DeviceID: "tenant-b", TaskID: uint64(i), Payload: dirt, ExitStage: 1}); err != nil {
			// Not fatal: under a regression this is the corrupted tenant
			// map speaking, and the checks below say what else went.
			t.Errorf("recycling traffic: %v", err)
			break
		}
	}

	shares := edge.stats().Shares
	if _, ok := shares["tenant-a"]; !ok || len(shares) != 2 {
		t.Errorf("tenant keys after recycling: %v, want tenant-a and tenant-b", shares)
	}
	if _, _, err := edge.tenantSnapshot("tenant-a"); err != nil {
		t.Errorf("tenant-a lost after recycling: %v", err)
	}
	if st, err := edge.pipelineStage(pipeID, 0); err != nil {
		t.Errorf("pipeline lost after recycling: %v", err)
	} else if st.spec.PipelineID != pipeID || st.spec.NextAddr != last.Addr() {
		t.Errorf("installed stage reads pipeline %q next %q, want %q next %q", st.spec.PipelineID, st.spec.NextAddr, pipeID, last.Addr())
	}
	got, err := c.Call(ctx, ActivationReq{PipelineID: pipeID, DeviceID: "tenant-a", TaskID: 2, ExitStage: 3, Payload: zeroPayload(1024)})
	if err != nil {
		t.Errorf("activation through the installed next hop: %v", err)
	} else if resp := got.(TaskResp); resp.ExitStage != 3 {
		t.Errorf("activation served exit %d, want 3 from the next hop", resp.ExitStage)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("traced first block recorded no span")
	}
	for _, s := range spans {
		if s.Trace == traced.TraceID && s.Device != "tenant-a" {
			t.Errorf("span %q of the traced task reads device %q, want tenant-a", s.Name, s.Device)
		}
	}
}

// TestZeroPayload checks the shared placeholder: exactly n zero bytes with
// no spare capacity, and a slice handed out earlier stays valid and zero
// while other goroutines force the slab to grow.
func TestZeroPayload(t *testing.T) {
	check := func(p []byte, n int) {
		t.Helper()
		if len(p) != n || cap(p) != n {
			t.Errorf("zeroPayload(%d): len %d cap %d", n, len(p), cap(p))
		}
		if bytes.Count(p, []byte{0}) != n {
			t.Errorf("zeroPayload(%d) holds a non-zero byte", n)
		}
	}
	check(zeroPayload(0), 0)
	held := zeroPayload(4096)
	base := len(*zeroSlab.Load())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 32; i++ {
				n := base + (i*8+g)*1024 // every call outgrows what this goroutine saw last
				check(zeroPayload(n), n)
				check(zeroPayload(n/3), n/3)
			}
		}(g)
	}
	wg.Wait()
	check(held, 4096)
	if got := len(*zeroSlab.Load()); got < base+(32*8+7)*1024 {
		t.Errorf("slab shrank to %d bytes", got)
	}
}
