package rpc

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestFrameClassArithmetic pins the class table: ascending quarter steps
// from 4 KiB, every legal frame size served by the smallest class that
// holds it with at most 25 % slack, and the table exactly long enough for
// the largest legal frame.
func TestFrameClassArithmetic(t *testing.T) {
	if got := frameClass(maxFrameBuf) + 1; got != frameClassCount {
		t.Fatalf("frameClassCount = %d, want frameClass(maxFrameBuf)+1 = %d", frameClassCount, got)
	}
	if frameClassSize(0) != minFrameClass {
		t.Fatalf("class 0 holds %d bytes, want %d", frameClassSize(0), minFrameClass)
	}
	for i := 1; i < frameClassCount; i++ {
		if frameClassSize(i) <= frameClassSize(i-1) {
			t.Fatalf("class %d (%d B) not above class %d (%d B)", i, frameClassSize(i), i-1, frameClassSize(i-1))
		}
	}
	for i := 0; i < frameClassCount; i++ {
		size := frameClassSize(i)
		for _, n := range []int{size - 1, size, size + 1} {
			if n > maxFrameBuf {
				continue
			}
			c := frameClass(n)
			if got := frameClassSize(c); got < n {
				t.Errorf("frameClass(%d) = %d holds only %d bytes", n, c, got)
			} else if c > 0 && frameClassSize(c-1) >= n {
				t.Errorf("frameClass(%d) = %d, but class %d already fits", n, c, c-1)
			} else if n > minFrameClass && got*4 > n*5 {
				t.Errorf("frameClass(%d) wastes %d bytes, over 25 %%", n, got-n)
			}
		}
	}
	if got := cap(getFrameBuf(maxFrameBuf + 1)); got != maxFrameBuf+1 {
		t.Errorf("over-limit buffer cap %d, want an exact allocation", got)
	}
}

// patternByte is byte i of request seed's payload: position-dependent, so a
// shifted or partly overwritten copy cannot pass for the original.
func patternByte(seed uint64, i int) byte {
	return byte((uint64(i)+seed)*0x9e3779b97f4a7c15>>56) ^ byte(seed)
}

func fillPattern(p []byte, seed uint64) {
	for i := range p {
		p[i] = patternByte(seed, i)
	}
}

func checkPattern(p []byte, seed uint64) error {
	for i := range p {
		if p[i] != patternByte(seed, i) {
			return fmt.Errorf("task %d: payload byte %d of %d is %#x, want %#x", seed, i, len(p), p[i], patternByte(seed, i))
		}
	}
	return nil
}

// TestEchoedRequestOutlivesItsFrame is the one-line-too-early test in its
// simplest form: one connection, one request in flight, a handler that
// returns the request's own Payload. The reply's encoder draws from the
// class the request frame goes back to, so releasing the frame before the
// reply is written makes the encoder write its header over the bytes it is
// about to copy.
func TestEchoedRequestOutlivesItsFrame(t *testing.T) {
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) { return body, nil })
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	payload := make([]byte, 3000)
	for task := uint64(1); task <= 200; task++ {
		fillPattern(payload, task)
		got, err := c.Call(context.Background(), benchTaskReq{DeviceID: "dev", TaskID: task, Payload: payload, Exit: 1})
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if err := checkPattern(got.(benchTaskReq).Payload, task); err != nil {
			t.Fatalf("echo corrupted: %v", err)
		}
	}
}

// TestPooledFrameLifetimeStress drives mixed 3 KB / 192 KB / 1 MB bodies
// from eight goroutines through an echoing server. The handler checks its
// request's pattern on entry and again once another request has been read
// into the pool behind it; the client checks the echo. A frame released
// before its reply is written, or handed out twice, shows as a corrupted
// pattern and, under -race, as a write racing the read.
func TestPooledFrameLifetimeStress(t *testing.T) {
	var entered atomic.Uint64
	s, err := ServeMeta("127.0.0.1:0", func(_ context.Context, _ Meta, body any) (any, error) {
		req := body.(benchTaskReq)
		if err := checkPattern(req.Payload, req.TaskID); err != nil {
			return nil, fmt.Errorf("on entry: %w", err)
		}
		// Wait for a later request to be read (the last one in flight has
		// none and gives up after a bounded number of yields).
		mine := entered.Add(1)
		for i := 0; i < 1000 && entered.Load() == mine; i++ {
			runtime.Gosched()
		}
		if err := checkPattern(req.Payload, req.TaskID); err != nil {
			return nil, fmt.Errorf("after a later request was read: %w", err)
		}
		return req, nil
	})
	if err != nil {
		t.Fatalf("ServeMeta: %v", err)
	}
	defer s.Close()

	const workers, callsEach = 8, 9
	sizes := []int{3 << 10, 192 << 10, 1 << 20}
	clients := make([]*Client, 2)
	for i := range clients {
		if clients[i], err = Dial(s.Addr(), nil); err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer clients[i].Close()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < callsEach; i++ {
				task := uint64(w*callsEach + i + 1)
				payload := make([]byte, sizes[(w+i)%len(sizes)])
				fillPattern(payload, task)
				got, err := c.Call(context.Background(), benchTaskReq{DeviceID: "dev", TaskID: task, Payload: payload, Exit: 3})
				if err != nil {
					t.Errorf("task %d: %v", task, err)
					return
				}
				echo, ok := got.(benchTaskReq)
				if !ok || echo.TaskID != task || len(echo.Payload) != len(payload) {
					t.Errorf("task %d: reply %T task %d with %d bytes", task, got, echo.TaskID, len(echo.Payload))
					return
				}
				if err := checkPattern(echo.Payload, task); err != nil {
					t.Errorf("echo corrupted: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// bodyString returns the string a test body carries, "" for the others.
func bodyString(body any) string {
	switch b := body.(type) {
	case string:
		return b
	case echoReq:
		return b.Text
	case echoResp:
		return b.Text
	case benchTaskReq:
		return b.DeviceID
	}
	return ""
}

// decodeRecycled decodes data through the server's pooled path out of a
// dirty recycled buffer and holds the result against the fresh-buffer
// decode: the same error-or-not, envelopes that re-encode to the same bytes
// (byte equality tolerates the NaNs DeepEqual cannot), and strings that do
// not change when the frame is overwritten afterwards. It reports whether
// the dirty buffer was the one the read got.
func decodeRecycled(t *testing.T, data []byte) (recycled bool) {
	t.Helper()
	fresh, freshErr := readFrame(bytes.NewReader(data))
	pooled, frame, dirty, pooledErr := readRecycledFrame(data)
	if (freshErr == nil) != (pooledErr == nil) {
		t.Fatalf("fresh decode error %v, pooled decode error %v", freshErr, pooledErr)
	}
	if pooledErr != nil {
		if frame != nil {
			t.Fatalf("failed pooled read still returned its buffer")
		}
		return false
	}
	defer putFrameBuf(frame)
	want, _ := MarshalFrame(testEnvelope(fresh))
	got, _ := MarshalFrame(testEnvelope(pooled))
	if !bytes.Equal(want, got) {
		t.Fatalf("recycled buffer changed the decode:\nfresh  %#v\npooled %#v", fresh, pooled)
	}
	for i := range frame {
		frame[i] = 0xff // what the next frame in this buffer would do
	}
	if pooled.Err != fresh.Err || pooled.Code != fresh.Code || bodyString(pooled.Body) != bodyString(fresh.Body) {
		t.Fatalf("a decoded string changed with its frame:\nfresh  %#v\npooled %#v", fresh, pooled)
	}
	return unsafe.SliceData(frame) == dirty
}

// TestDirtyRecycledBufferDecodesTheSame decodes each kind of frame out of a
// buffer a longer 0xFF-filled frame used last: nothing of the previous
// tenant may leak into the envelope.
func TestDirtyRecycledBufferDecodesTheSame(t *testing.T) {
	payload := make([]byte, 5000)
	fillPattern(payload, 9)
	envs := []*envelope{
		{ID: 1, Body: "hello"},
		{ID: 2, Meta: Meta{TraceID: 7, SpanID: 9, Deadline: 1_700_000_000_000_000_000}, Body: benchTaskReq{DeviceID: "device-42", TaskID: 99, Payload: payload, Exit: 2}},
		{ID: 3, Body: benchTaskReq{DeviceID: "d", TaskID: 1}},
		{ID: 4, IsReply: true, Err: "edge: busy", Code: "overloaded"},
		{ID: 5, Body: echoReq{Text: "a test codec on a reserved ID", N: -3}},
		{ID: 6},
	}
	reused := 0
	for _, env := range envs {
		frame, err := MarshalFrame(testEnvelope(env))
		if err != nil {
			t.Fatalf("envelope %d does not encode: %v", env.ID, err)
		}
		fresh, err := readFrame(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(fresh, env) {
			t.Fatalf("envelope %d: fresh decode %#v, %v", env.ID, fresh, err)
		}
		for i := 0; i < 16; i++ {
			if decodeRecycled(t, frame) {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Error("no decode ever ran on the dirty buffer: the property was not exercised")
	}
}
