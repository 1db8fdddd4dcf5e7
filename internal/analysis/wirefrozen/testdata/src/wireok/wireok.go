// Package wireok is the clean fixture: every registration matches the
// golden manifest the test points ManifestPath at.
package wireok

import "rpc"

type PingReq struct {
	DeviceID string
	Seq      uint64
}

type PingResp struct {
	Seq     uint64
	Healthy bool
}

type BatchReq struct {
	IDs   []string
	Loads [3]float64
}

// encodeLoads is an encode helper; wirefrozen inlines it anonymously, so
// renaming it must not change the wire signature.
func encodeLoads(e *rpc.Encoder, loads [3]float64) {
	for _, v := range loads {
		e.Float64(v)
	}
}

func registerAll() {
	rpc.RegisterCodec(1, PingReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(PingReq)
			e.String(r.DeviceID)
			e.Uvarint(r.Seq)
		},
		func(d *rpc.Decoder) (any, error) {
			var r PingReq
			r.DeviceID = d.String()
			r.Seq = d.Uvarint()
			return r, nil
		})
	rpc.RegisterCodec(2, PingResp{},
		func(e *rpc.Encoder, v any) {
			e.Uvarint(v.(PingResp).Seq)
			e.Bool(v.(PingResp).Healthy)
		},
		func(d *rpc.Decoder) (any, error) {
			return PingResp{Seq: d.Uvarint(), Healthy: d.Bool()}, nil
		})
	rpc.RegisterCodec(3, BatchReq{},
		func(e *rpc.Encoder, v any) {
			r := v.(BatchReq)
			e.Uvarint(uint64(len(r.IDs)))
			for _, id := range r.IDs {
				e.String(id)
			}
			encodeLoads(e, r.Loads)
		},
		func(d *rpc.Decoder) (any, error) {
			var r BatchReq
			n := d.Uvarint()
			for i := uint64(0); i < n; i++ {
				r.IDs = append(r.IDs, d.String())
			}
			for i := range r.Loads {
				r.Loads[i] = d.Float64()
			}
			return r, nil
		})
}
