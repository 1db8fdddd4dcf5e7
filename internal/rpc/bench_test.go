package rpc

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

func benchServer(b *testing.B) *Server {
	b.Helper()
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) {
		req := body.(echoReq)
		return echoResp{Text: req.Text, N: req.N}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	return s
}

// benchTaskReq mirrors the shape of a block-continuation request (IDs, a
// tensor payload, an exit stage) so codec benchmarks measure a
// representative task message without importing the runtime package.
type benchTaskReq struct {
	DeviceID string
	TaskID   uint64
	Payload  []byte
	Exit     int
}

// BenchmarkCallRoundTrip measures one request/response over loopback TCP
// on the binary codec.
func BenchmarkCallRoundTrip(b *testing.B) {
	s := benchServer(b)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := echoReq{Text: "payload", N: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallRoundTripDeadline is BenchmarkCallRoundTrip under a context
// deadline: the envelope carries it and the handler context reports it, so
// the difference between the two is what a deadline costs a round trip.
func BenchmarkCallRoundTripDeadline(b *testing.B) {
	s := benchServer(b)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	req := echoReq{Text: "payload", N: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// runConcurrent distributes exactly n calls over the workers (worker w
// takes one extra while w < n%workers), so the reported calls/s is an
// honest n/elapsed.
func runConcurrent(b *testing.B, c *Client, workers, n int) {
	var wg sync.WaitGroup
	base, extra := n/workers, n%workers
	for w := 0; w < workers; w++ {
		calls := base
		if w < extra {
			calls++
		}
		wg.Add(1)
		go func(calls int) {
			defer wg.Done()
			req := echoReq{Text: "payload"}
			for i := 0; i < calls; i++ {
				if _, err := c.Call(context.Background(), req); err != nil {
					b.Error(err)
					return
				}
			}
		}(calls)
	}
	wg.Wait()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "calls/s")
}

// BenchmarkCallConcurrent measures pipelined throughput on one connection
// over the binary codec.
func BenchmarkCallConcurrent(b *testing.B) {
	s := benchServer(b)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	runConcurrent(b, c, 16, b.N)
}

// benchLarge round-trips one Bytes body of the given size per iteration
// against handler, reporting payload bytes moved per call.
func benchLarge(b *testing.B, size int, handler MetaHandler) {
	s, err := ServeMeta("127.0.0.1:0", handler)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := benchTaskReq{DeviceID: "device-42", TaskID: 99, Payload: make([]byte, size), Exit: 3}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargePayload echoes a 64 KiB intermediate-tensor-sized Bytes
// body: the frame crosses the wire both ways, and the client's reply frame
// is its one exact-size allocation per call.
func BenchmarkLargePayload(b *testing.B) {
	benchLarge(b, 64<<10, func(_ context.Context, _ Meta, body any) (any, error) { return body, nil })
}

// BenchmarkCallLarge is the edge-to-cloud hop of an exit-3 task: a 192 KiB
// third-block tensor one way, a few bytes of reply back. Every large
// buffer on this path is pooled, so steady-state B/op stays in the
// kilobytes; CI holds it there (BENCH_13.json ci_budgets).
func BenchmarkCallLarge(b *testing.B) {
	benchLarge(b, 192<<10, func(_ context.Context, _ Meta, body any) (any, error) {
		return echoResp{N: len(body.(benchTaskReq).Payload)}, nil
	})
}

// BenchmarkCodecTaskRoundTrip measures the steady-state codec cost of one
// task message — encode a frame, decode it back — isolated from the
// network. This is the ≤3 allocs/op budget the wire format is built
// around: the pooled encode path allocates nothing; decode allocates the
// envelope block, the body's interface box and the device-ID string (a
// copy, so it may outlive the frame).
func BenchmarkCodecTaskRoundTrip(b *testing.B) {
	env := &envelope{
		ID:   7,
		Meta: Meta{TraceID: 11, SpanID: 13, Deadline: 1_700_000_000_000_000_000},
		Body: benchTaskReq{DeviceID: "device-42", TaskID: 99, Payload: make([]byte, 1024), Exit: 2},
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeFrame(&buf, env); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeBinaryEnvelope(buf.Bytes()[frameHeaderLen:]); err != nil {
			b.Fatal(err)
		}
	}
}
