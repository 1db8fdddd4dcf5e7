package runtime

import (
	"fmt"
	"sort"

	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// Binary wire codecs for the closed protocol set. Each message type gets a
// stable codec ID and a hand-rolled encode/decode pair that is the exact
// inverse of the other; RegisterMessages installs them, and the rpc layer
// refuses to send a body type that has none.
//
// IDs are wire contract: never reuse one for a different type. Field order
// within each codec is likewise frozen — append-only evolution requires a
// new ID (or a wire version bump).
const (
	codecIDRegisterReq      = 1
	codecIDRegisterResp     = 2
	codecIDFirstBlockReq    = 3
	codecIDSecondBlockReq   = 4
	codecIDThirdBlockReq    = 5
	codecIDTaskResp         = 6
	codecIDQueueStatReq     = 7
	codecIDQueueStatResp    = 8
	codecIDUpdateReq        = 9
	codecIDUnregisterReq    = 10
	codecIDUnregisterResp   = 11
	codecIDEdgeStatsReq     = 12
	codecIDEdgeStatsResp    = 13
	codecIDHeartbeatReq     = 14
	codecIDHeartbeatResp    = 15
	codecIDStealReq         = 16
	codecIDStageInstallReq  = 17
	codecIDStageInstallResp = 18
	codecIDActivationReq    = 19
)

// encodeModel appends the nine profile constants in declaration order.
func encodeModel(e *rpc.Encoder, m *offload.ModelParams) {
	for _, v := range m.Mu {
		e.Float64(v)
	}
	for _, v := range m.D {
		e.Float64(v)
	}
	for _, v := range m.Sigma {
		e.Float64(v)
	}
}

func decodeModel(d *rpc.Decoder, m *offload.ModelParams) {
	for i := range m.Mu {
		m.Mu[i] = d.Float64()
	}
	for i := range m.D {
		m.D[i] = d.Float64()
	}
	for i := range m.Sigma {
		m.Sigma[i] = d.Float64()
	}
}

// RegisterMessages installs the binary codec of every protocol message with
// the rpc layer, which sends nothing else. It is idempotent per process and
// must be called by every tier before serving or dialing.
func RegisterMessages() {
	rpc.RegisterCodec(codecIDRegisterReq, RegisterReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(RegisterReq)
			e.String(r.DeviceID)
			e.Float64(r.FLOPS)
			e.Float64(r.ArrivalMean)
			encodeModel(e, &r.Model)
		},
		func(d *rpc.Decoder) (any, error) {
			var r RegisterReq
			r.DeviceID = d.String()
			r.FLOPS = d.Float64()
			r.ArrivalMean = d.Float64()
			decodeModel(d, &r.Model)
			return r, nil
		})
	rpc.RegisterCodec(codecIDRegisterResp, RegisterResp{},
		func(e *rpc.Encoder, v any) {
			e.Float64(v.(RegisterResp).ShareFLOPS)
		},
		func(d *rpc.Decoder) (any, error) {
			return RegisterResp{ShareFLOPS: d.Float64()}, nil
		})
	rpc.RegisterCodec(codecIDFirstBlockReq, FirstBlockReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(FirstBlockReq)
			e.String(r.DeviceID)
			e.Uvarint(r.TaskID)
			e.Bytes(r.Payload)
			e.Int(r.ExitStage)
		},
		func(d *rpc.Decoder) (any, error) {
			var r FirstBlockReq
			r.DeviceID = d.String()
			r.TaskID = d.Uvarint()
			r.Payload = d.Bytes()
			r.ExitStage = d.Int()
			return r, nil
		})
	rpc.RegisterCodec(codecIDSecondBlockReq, SecondBlockReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(SecondBlockReq)
			e.String(r.DeviceID)
			e.Uvarint(r.TaskID)
			e.Bytes(r.Payload)
			e.Int(r.ExitStage)
		},
		func(d *rpc.Decoder) (any, error) {
			var r SecondBlockReq
			r.DeviceID = d.String()
			r.TaskID = d.Uvarint()
			r.Payload = d.Bytes()
			r.ExitStage = d.Int()
			return r, nil
		})
	rpc.RegisterCodec(codecIDThirdBlockReq, ThirdBlockReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(ThirdBlockReq)
			e.Uvarint(r.TaskID)
			e.Bytes(r.Payload)
			e.Float64(r.FLOPs)
		},
		func(d *rpc.Decoder) (any, error) {
			var r ThirdBlockReq
			r.TaskID = d.Uvarint()
			r.Payload = d.Bytes()
			r.FLOPs = d.Float64()
			return r, nil
		})
	rpc.RegisterCodec(codecIDTaskResp, TaskResp{},
		func(e *rpc.Encoder, v any) {
			r := v.(TaskResp)
			e.Uvarint(r.TaskID)
			e.Int(r.ExitStage)
		},
		func(d *rpc.Decoder) (any, error) {
			var r TaskResp
			r.TaskID = d.Uvarint()
			r.ExitStage = d.Int()
			return r, nil
		})
	rpc.RegisterCodec(codecIDQueueStatReq, QueueStatReq{},
		func(e *rpc.Encoder, v any) {
			e.String(v.(QueueStatReq).DeviceID)
		},
		func(d *rpc.Decoder) (any, error) {
			return QueueStatReq{DeviceID: d.String()}, nil
		})
	rpc.RegisterCodec(codecIDQueueStatResp, QueueStatResp{},
		func(e *rpc.Encoder, v any) {
			e.Int(v.(QueueStatResp).PendingFirstBlock)
		},
		func(d *rpc.Decoder) (any, error) {
			return QueueStatResp{PendingFirstBlock: d.Int()}, nil
		})
	rpc.RegisterCodec(codecIDUpdateReq, UpdateReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(UpdateReq)
			e.String(r.DeviceID)
			e.Float64(r.ArrivalMean)
		},
		func(d *rpc.Decoder) (any, error) {
			var r UpdateReq
			r.DeviceID = d.String()
			r.ArrivalMean = d.Float64()
			return r, nil
		})
	rpc.RegisterCodec(codecIDUnregisterReq, UnregisterReq{},
		func(e *rpc.Encoder, v any) {
			e.String(v.(UnregisterReq).DeviceID)
		},
		func(d *rpc.Decoder) (any, error) {
			return UnregisterReq{DeviceID: d.String()}, nil
		})
	rpc.RegisterCodec(codecIDUnregisterResp, UnregisterResp{},
		func(e *rpc.Encoder, v any) {
			e.Int(v.(UnregisterResp).RemainingTenants)
		},
		func(d *rpc.Decoder) (any, error) {
			return UnregisterResp{RemainingTenants: d.Int()}, nil
		})
	rpc.RegisterCodec(codecIDEdgeStatsReq, EdgeStatsReq{},
		func(e *rpc.Encoder, v any) {},
		func(d *rpc.Decoder) (any, error) {
			return EdgeStatsReq{}, nil
		})
	rpc.RegisterCodec(codecIDEdgeStatsResp, EdgeStatsResp{},
		func(e *rpc.Encoder, v any) {
			r := v.(EdgeStatsResp)
			e.Int(r.Tenants)
			e.Int(r.PendingFirstBlock)
			// Maps iterate in random order; sort the keys so encoding is
			// deterministic (differential tests compare byte streams).
			e.Uvarint(uint64(len(r.Shares)))
			keys := make([]string, 0, len(r.Shares))
			for k := range r.Shares {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.String(k)
				e.Float64(r.Shares[k])
			}
		},
		func(d *rpc.Decoder) (any, error) {
			var r EdgeStatsResp
			r.Tenants = d.Int()
			r.PendingFirstBlock = d.Int()
			n := d.Uvarint()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if n > uint64(d.Len()) {
				// Each entry needs at least one byte; a larger count is a
				// corrupt frame, not a huge allocation.
				return nil, fmt.Errorf("runtime: shares count %d exceeds frame", n)
			}
			if n > 0 {
				r.Shares = make(map[string]float64, n)
				for i := uint64(0); i < n; i++ {
					k := d.String()
					r.Shares[k] = d.Float64()
				}
			}
			return r, nil
		})
	rpc.RegisterCodec(codecIDHeartbeatReq, HeartbeatReq{},
		func(e *rpc.Encoder, v any) {
			e.String(v.(HeartbeatReq).DeviceID)
		},
		func(d *rpc.Decoder) (any, error) {
			return HeartbeatReq{DeviceID: d.String()}, nil
		})
	rpc.RegisterCodec(codecIDHeartbeatResp, HeartbeatResp{},
		func(e *rpc.Encoder, v any) {
			r := v.(HeartbeatResp)
			e.Bool(r.Ready)
			e.Float64(r.FLOPS)
			e.Int(r.Tenants)
			e.Float64(r.BacklogSec)
			e.Bool(r.Saturated)
			e.Int(r.PendingFirstBlock)
			e.Float64(r.ShareFLOPS)
		},
		func(d *rpc.Decoder) (any, error) {
			var r HeartbeatResp
			r.Ready = d.Bool()
			r.FLOPS = d.Float64()
			r.Tenants = d.Int()
			r.BacklogSec = d.Float64()
			r.Saturated = d.Bool()
			r.PendingFirstBlock = d.Int()
			r.ShareFLOPS = d.Float64()
			return r, nil
		})
	rpc.RegisterCodec(codecIDStealReq, StealReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(StealReq)
			e.String(r.DeviceID)
			e.Uvarint(r.TaskID)
			e.Bytes(r.Payload)
			e.Int(r.ExitStage)
			e.Int(r.Hop)
			encodeModel(e, &r.Model)
		},
		func(d *rpc.Decoder) (any, error) {
			var r StealReq
			r.DeviceID = d.String()
			r.TaskID = d.Uvarint()
			r.Payload = d.Bytes()
			r.ExitStage = d.Int()
			r.Hop = d.Int()
			decodeModel(d, &r.Model)
			return r, nil
		})
	rpc.RegisterCodec(codecIDStageInstallReq, StageInstallReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(StageInstallReq)
			e.String(r.PipelineID)
			e.Int(r.Stage)
			for _, f := range r.FLOPs {
				e.Float64(f)
			}
			for _, h := range r.Hosted {
				e.Bool(h)
			}
			e.Int(r.Deepest)
			e.Float64(r.OutBytes)
			e.String(r.NextAddr)
		},
		func(d *rpc.Decoder) (any, error) {
			var r StageInstallReq
			r.PipelineID = d.String()
			r.Stage = d.Int()
			for i := range r.FLOPs {
				r.FLOPs[i] = d.Float64()
			}
			for i := range r.Hosted {
				r.Hosted[i] = d.Bool()
			}
			r.Deepest = d.Int()
			r.OutBytes = d.Float64()
			r.NextAddr = d.String()
			return r, nil
		})
	rpc.RegisterCodec(codecIDStageInstallResp, StageInstallResp{},
		func(e *rpc.Encoder, v any) {
			e.Int(v.(StageInstallResp).Stage)
		},
		func(d *rpc.Decoder) (any, error) {
			return StageInstallResp{Stage: d.Int()}, nil
		})
	rpc.RegisterCodec(codecIDActivationReq, ActivationReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(ActivationReq)
			e.String(r.PipelineID)
			e.String(r.DeviceID)
			e.Uvarint(r.TaskID)
			e.Int(r.Stage)
			e.Int(r.ExitStage)
			e.Bytes(r.Payload)
		},
		func(d *rpc.Decoder) (any, error) {
			var r ActivationReq
			r.PipelineID = d.String()
			r.DeviceID = d.String()
			r.TaskID = d.Uvarint()
			r.Stage = d.Int()
			r.ExitStage = d.Int()
			r.Payload = d.Bytes()
			return r, nil
		})
}

// RegisterWireMetrics exposes the process-wide rpc codec counters on reg
// as scrape-time gauges by direction. The codec="binary" label names the
// only codec there is, and keeps existing scrape queries working. Safe to
// call more than once per registry.
func RegisterWireMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	codec := telemetry.Label{Key: "codec", Value: "binary"}
	frames := []struct {
		dir string
		get func(rpc.CodecStats) uint64
	}{
		{"encode", func(s rpc.CodecStats) uint64 { return s.BinaryEncoded }},
		{"decode", func(s rpc.CodecStats) uint64 { return s.BinaryDecoded }},
	}
	for _, f := range frames {
		get := f.get
		reg.GaugeFunc("leime_wire_frames", "Frames moved by the rpc wire codec.",
			func() float64 { return float64(get(rpc.WireStats())) },
			codec, telemetry.Label{Key: "dir", Value: f.dir})
	}
	reg.GaugeFunc("leime_wire_encoded_bytes", "Envelope payload bytes produced by the rpc wire codec.",
		func() float64 { return float64(rpc.WireStats().BinaryBytes) }, codec)
}
