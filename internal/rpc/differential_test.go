// Differential tests of the two wire codecs, in an external test package
// so it can import the runtime protocol (package runtime imports rpc, so
// in-package rpc tests cannot).
package rpc_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/runtime"
)

// protocolMessages builds one instance of every protocol.go message from
// fuzzable primitives. Empty payloads normalize to nil: both codecs decode
// a zero-length slice as nil, so only the nil form round-trips exactly.
func protocolMessages(deviceID string, taskID uint64, payload []byte, stage int, load, mean, share float64, tenants int) []any {
	if len(payload) == 0 {
		payload = nil
	}
	model := offload.ModelParams{
		Mu:    [3]float64{load, mean, share},
		D:     [3]float64{share, load, mean},
		Sigma: [3]float64{mean, share, 1},
	}
	shares := map[string]float64{deviceID: share, deviceID + "-peer": mean}
	return []any{
		runtime.RegisterReq{DeviceID: deviceID, FLOPS: load, ArrivalMean: mean, Model: model},
		runtime.RegisterResp{ShareFLOPS: share},
		runtime.FirstBlockReq{DeviceID: deviceID, TaskID: taskID, Payload: payload, ExitStage: stage},
		runtime.SecondBlockReq{DeviceID: deviceID, TaskID: taskID, Payload: payload, ExitStage: stage},
		runtime.ThirdBlockReq{TaskID: taskID, Payload: payload, FLOPs: load},
		runtime.TaskResp{TaskID: taskID, ExitStage: stage},
		runtime.UpdateReq{DeviceID: deviceID, ArrivalMean: mean},
		runtime.UnregisterReq{DeviceID: deviceID},
		runtime.UnregisterResp{RemainingTenants: tenants},
		runtime.EdgeStatsReq{},
		runtime.EdgeStatsResp{Tenants: tenants, PendingFirstBlock: stage, Shares: shares},
		runtime.QueueStatReq{DeviceID: deviceID},
		runtime.QueueStatResp{PendingFirstBlock: tenants},
		runtime.HeartbeatReq{DeviceID: deviceID},
		runtime.HeartbeatResp{Ready: stage > 1, FLOPS: load, Tenants: tenants,
			BacklogSec: mean, Saturated: tenants > 2, PendingFirstBlock: stage, ShareFLOPS: share},
		runtime.StealReq{DeviceID: deviceID, TaskID: taskID, Payload: payload, ExitStage: stage, Hop: 1, Model: model},
	}
}

// roundTripBoth pushes env through the binary codec and the forced-gob
// fallback, requiring both to reproduce the envelope exactly and to agree
// with each other.
func roundTripBoth(t *testing.T, env rpc.TestEnvelope) {
	t.Helper()
	if env.Body != nil && !rpc.BinaryEligible(env.Body) {
		t.Fatalf("%T has no registered binary codec", env.Body)
	}
	binFrame, err := rpc.MarshalFrame(env)
	if err != nil {
		t.Fatalf("binary marshal %T: %v", env.Body, err)
	}
	binGot, err := rpc.UnmarshalFrame(binFrame)
	if err != nil {
		t.Fatalf("binary unmarshal %T: %v", env.Body, err)
	}
	restore := rpc.ForceGob()
	gobFrame, err := rpc.MarshalFrame(env)
	restore()
	if err != nil {
		t.Fatalf("gob marshal %T: %v", env.Body, err)
	}
	gobGot, err := rpc.UnmarshalFrame(gobFrame)
	if err != nil {
		t.Fatalf("gob unmarshal %T: %v", env.Body, err)
	}
	if !reflect.DeepEqual(binGot, env) {
		t.Errorf("binary round-trip diverged:\n got %#v\nwant %#v", binGot, env)
	}
	if !reflect.DeepEqual(gobGot, env) {
		t.Errorf("gob round-trip diverged:\n got %#v\nwant %#v", gobGot, env)
	}
	if !reflect.DeepEqual(binGot, gobGot) {
		t.Errorf("codecs disagree:\nbinary %#v\n   gob %#v", binGot, gobGot)
	}
}

// TestDifferentialProtocolMessages round-trips every protocol message with
// representative values through both codecs.
func TestDifferentialProtocolMessages(t *testing.T) {
	runtime.RegisterMessages()
	meta := rpc.Meta{TraceID: 7, SpanID: 9, Deadline: 1_700_000_000_000_000_000}
	for _, body := range protocolMessages("dev-1", 42, []byte{1, 2, 3, 255}, 2, 8e13, 3.5, 0.25, 4) {
		roundTripBoth(t, rpc.TestEnvelope{ID: 11, Meta: meta, Body: body})
	}
	// Error replies and empty envelopes must survive both codecs too.
	roundTripBoth(t, rpc.TestEnvelope{ID: 3, IsReply: true, Err: "edge: busy", Code: "overloaded"})
	roundTripBoth(t, rpc.TestEnvelope{ID: 0})
}

// TestProtocolMessagesRideBinaryPath pins the negotiation: registered
// protocol messages must take the binary codec, unregistered bodies the
// gob fallback, distinguished by the frame's codec tag byte.
func TestProtocolMessagesRideBinaryPath(t *testing.T) {
	runtime.RegisterMessages()
	for _, body := range protocolMessages("dev", 1, []byte{9}, 1, 1, 1, 1, 1) {
		frame, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 1, Body: body})
		if err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
		if frame[5] != 1 {
			t.Errorf("%T took codec tag %d, want binary (1)", body, frame[5])
		}
	}
	type unregistered struct{ X int }
	rpc.Register(unregistered{})
	frame, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 1, Body: unregistered{X: 5}})
	if err != nil {
		t.Fatalf("marshal unregistered: %v", err)
	}
	if frame[5] != 0 {
		t.Errorf("unregistered body took codec tag %d, want gob (0)", frame[5])
	}
	got, err := rpc.UnmarshalFrame(frame)
	if err != nil {
		t.Fatalf("unmarshal gob fallback: %v", err)
	}
	if got.Body != (unregistered{X: 5}) {
		t.Errorf("gob fallback body = %#v", got.Body)
	}
}

// FuzzDifferentialCodec fuzzes the full protocol set through both codecs,
// requiring byte-path-independent equality.
func FuzzDifferentialCodec(f *testing.F) {
	runtime.RegisterMessages()
	f.Add("dev-1", uint64(42), []byte{1, 2, 3}, 2, 8e13, 3.5, 0.25, 4, uint64(7), uint64(9), int64(12345))
	f.Add("", uint64(0), []byte(nil), 0, 0.0, 0.0, 0.0, 0, uint64(0), uint64(0), int64(0))
	f.Add("edge-дев", uint64(math.MaxUint64), bytes.Repeat([]byte{0xff}, 64), -1, -1.5, math.Inf(1), math.SmallestNonzeroFloat64, math.MinInt, uint64(1), uint64(math.MaxUint64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, deviceID string, taskID uint64, payload []byte, stage int, load, mean, share float64, tenants int, traceID, spanID uint64, deadline int64) {
		if math.IsNaN(load) || math.IsNaN(mean) || math.IsNaN(share) {
			t.Skip("NaN never compares equal; not a codec property")
		}
		meta := rpc.Meta{TraceID: traceID, SpanID: spanID, Deadline: deadline}
		for _, body := range protocolMessages(deviceID, taskID, payload, stage, load, mean, share, tenants) {
			roundTripBoth(t, rpc.TestEnvelope{ID: taskID, Meta: meta, Body: body})
		}
	})
}

// FuzzCorruptBinaryFrame seeds the mutator with valid binary frames of
// every protocol message and requires that arbitrary mutations decode
// cleanly or error — never panic — and that the server's pooled read, out
// of a dirty recycled buffer, decodes them to the same thing.
func FuzzCorruptBinaryFrame(f *testing.F) {
	runtime.RegisterMessages()
	for _, body := range protocolMessages("dev-1", 42, []byte{1, 2, 3, 255}, 2, 8e13, 3.5, 0.25, 4) {
		frame, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 11, Meta: rpc.Meta{TraceID: 1, SpanID: 2, Deadline: 3}, Body: body})
		if err != nil {
			f.Fatalf("marshal %T: %v", body, err)
		}
		f.Add(frame)
		// A truncated variant probes every partial-field path.
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := rpc.UnmarshalFrame(data)
		rpc.UnmarshalRecycledFrame(data, func(pooled rpc.TestEnvelope, pooledErr error) {
			if (err == nil) != (pooledErr == nil) {
				t.Fatalf("fresh decode error %v, pooled decode error %v", err, pooledErr)
			}
			if err != nil {
				return
			}
			want, _ := rpc.MarshalFrame(env)
			got, _ := rpc.MarshalFrame(pooled)
			if !bytes.Equal(want, got) {
				t.Errorf("recycled buffer changed the decode:\nfresh  %#v\npooled %#v", env, pooled)
			}
		})
		if err != nil {
			return
		}
		// A frame that decodes must re-encode losslessly (empty payloads
		// normalize to nil on the next decode, so compare decoded forms).
		frame2, err := rpc.MarshalFrame(env)
		if err != nil {
			t.Fatalf("re-marshal of decoded frame failed: %v", err)
		}
		env2, err := rpc.UnmarshalFrame(frame2)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		// Compare re-encoded bytes, not decoded values: encoding is
		// deterministic and byte equality tolerates NaN payloads that
		// DeepEqual cannot.
		frame3, err := rpc.MarshalFrame(env2)
		if err != nil {
			t.Fatalf("re-marshal of second decode failed: %v", err)
		}
		if !bytes.Equal(frame2, frame3) {
			t.Errorf("decode/encode/decode not stable:\nfirst  %x\nsecond %x", frame2, frame3)
		}
	})
}
