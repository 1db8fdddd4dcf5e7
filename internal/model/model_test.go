package model

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConvSpecOutShape(t *testing.T) {
	tests := []struct {
		name string
		spec convSpec
		want Shape
	}{
		{
			name: "same-padding 3x3",
			spec: convSpec{In: Shape{32, 32, 3}, OutC: 64, Kernel: 3, Stride: 1, Pad: 1},
			want: Shape{32, 32, 64},
		},
		{
			name: "strided 3x3 halves spatial",
			spec: convSpec{In: Shape{16, 16, 64}, OutC: 128, Kernel: 3, Stride: 2, Pad: 1},
			want: Shape{8, 8, 128},
		},
		{
			name: "1x1 keeps spatial",
			spec: convSpec{In: Shape{8, 8, 256}, OutC: 32, Kernel: 1, Stride: 1, Pad: 0},
			want: Shape{8, 8, 32},
		},
		{
			name: "valid 5x5",
			spec: convSpec{In: Shape{12, 12, 4}, OutC: 8, Kernel: 5, Stride: 1, Pad: 0},
			want: Shape{8, 8, 8},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.spec.OutShape(); got != tt.want {
				t.Errorf("OutShape() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestConvSpecFLOPs(t *testing.T) {
	// 2 * K*K*Cin * out elements.
	spec := convSpec{In: Shape{32, 32, 3}, OutC: 64, Kernel: 3, Stride: 1, Pad: 1}
	want := 2.0 * 9 * 3 * 32 * 32 * 64
	if got := spec.FLOPs(); got != want {
		t.Errorf("FLOPs() = %v, want %v", got, want)
	}
}

func TestExitFLOPsGrowsWithChannels(t *testing.T) {
	small := ExitFLOPs(Shape{8, 8, 64})
	large := ExitFLOPs(Shape{8, 8, 512})
	if large <= small {
		t.Errorf("ExitFLOPs should grow with channels: %v <= %v", large, small)
	}
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate() = %v", err)
			}
		})
	}
}

func TestProfileShapesChainConsistently(t *testing.T) {
	// Each element's conv specs (when present) must start from a shape whose
	// channel count matches the previous element's output (spatial can shrink
	// via folded pools only on the previous element).
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prev := p.Input
			for i, e := range p.Elements {
				if len(e.Convs) > 0 {
					in := e.Convs[0].In
					if in != prev {
						t.Errorf("element %d (%s): first conv input %v, want previous output %v", i+1, e.Name, in, prev)
					}
				}
				prev = e.Out
			}
		})
	}
}

func TestProfileExitCounts(t *testing.T) {
	tests := []struct {
		profile *Profile
		want    int
	}{
		{VGG16(), 13},
		{ResNet34(), 17},
		{InceptionV3(), 16},
		{SqueezeNet10(), 10},
	}
	for _, tt := range tests {
		if got := tt.profile.NumExits(); got != tt.want {
			t.Errorf("%s: NumExits() = %d, want %d", tt.profile.Name, got, tt.want)
		}
	}
}

func TestCumulativeFLOPs(t *testing.T) {
	p := VGG16()
	if got := p.CumulativeFLOPs(0); got != 0 {
		t.Errorf("CumulativeFLOPs(0) = %v, want 0", got)
	}
	if got, want := p.CumulativeFLOPs(p.NumExits()), p.TotalFLOPs(); math.Abs(got-want) > 1 {
		t.Errorf("CumulativeFLOPs(m) = %v, want TotalFLOPs %v", got, want)
	}
	for i := 1; i <= p.NumExits(); i++ {
		if p.CumulativeFLOPs(i) <= p.CumulativeFLOPs(i-1) {
			t.Errorf("CumulativeFLOPs not strictly increasing at %d", i)
		}
	}
}

func TestRangeFLOPsPartition(t *testing.T) {
	for _, p := range All() {
		m := p.NumExits()
		e1, e2 := 2, m-2
		total := p.RangeFLOPs(0, e1) + p.RangeFLOPs(e1, e2) + p.RangeFLOPs(e2, m)
		if math.Abs(total-p.TotalFLOPs()) > 1e-6*p.TotalFLOPs() {
			t.Errorf("%s: three-block partition sums to %v, want %v", p.Name, total, p.TotalFLOPs())
		}
	}
}

func TestDepthFractionMonotone(t *testing.T) {
	for _, p := range All() {
		prev := 0.0
		for i := 1; i <= p.NumExits(); i++ {
			f := p.CumulativeFLOPs(i) / p.TotalFLOPs()
			if f <= prev {
				t.Errorf("%s: depth fraction at %d = %v not > %v at %d", p.Name, i, f, prev, i-1)
			}
			prev = f
		}
		if math.Abs(prev-1) > 1e-12 {
			t.Errorf("%s: depth fraction at the last exit = %v, want 1", p.Name, prev)
		}
	}
}

func TestNewMEDNN(t *testing.T) {
	p := InceptionV3()
	m := p.NumExits()
	sigma := make([]float64, m)
	for i := range sigma {
		sigma[i] = float64(i+1) / float64(m)
	}
	n, err := NewMEDNN(p, 1, 14, sigma)
	if err != nil {
		t.Fatalf("NewMEDNN: %v", err)
	}
	if n.E3 != m {
		t.Errorf("E3 = %d, want %d", n.E3, m)
	}
	if n.Sigma[2] != 1 {
		t.Errorf("Sigma[2] = %v, want 1", n.Sigma[2])
	}
	blocks := n.BlockFLOPs()
	backbone := p.TotalFLOPs()
	clsSum := p.ExitClassifierFLOPs(1) + p.ExitClassifierFLOPs(14) + p.ExitClassifierFLOPs(m)
	got := blocks[0] + blocks[1] + blocks[2]
	if math.Abs(got-(backbone+clsSum)) > 1e-6*backbone {
		t.Errorf("block FLOPs sum %v, want backbone+classifiers %v", got, backbone+clsSum)
	}
	data := n.DataBytes()
	if data[0] != RawInputBytes {
		t.Errorf("d0 = %v, want %v", data[0], float64(RawInputBytes))
	}
	if data[1] <= 0 || data[2] <= 0 {
		t.Errorf("intermediate sizes must be positive: %v", data)
	}
}

func TestNewMEDNNRejectsBadExits(t *testing.T) {
	p := VGG16()
	sigma := make([]float64, p.NumExits())
	for i := range sigma {
		sigma[i] = 1
	}
	cases := []struct{ e1, e2 int }{{0, 5}, {5, 5}, {7, 3}, {5, p.NumExits()}, {p.NumExits(), p.NumExits() + 1}}
	for _, c := range cases {
		if _, err := NewMEDNN(p, c.e1, c.e2, sigma); err == nil {
			t.Errorf("NewMEDNN(%d, %d) expected error", c.e1, c.e2)
		}
	}
	if _, err := NewMEDNN(p, 1, 5, sigma[:3]); err == nil {
		t.Error("NewMEDNN with short sigma expected error")
	}
}

func TestRangeFLOPsAdditiveProperty(t *testing.T) {
	p := ResNet34()
	m := p.NumExits()
	f := func(a, b, c uint8) bool {
		lo := int(a) % (m + 1)
		mid := int(b) % (m + 1)
		hi := int(c) % (m + 1)
		if lo > mid {
			lo, mid = mid, lo
		}
		if mid > hi {
			mid, hi = hi, mid
		}
		if lo > mid {
			lo, mid = mid, lo
		}
		got := p.RangeFLOPs(lo, mid) + p.RangeFLOPs(mid, hi)
		want := p.RangeFLOPs(lo, hi)
		return math.Abs(got-want) <= 1e-6*(want+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"vgg-16", "resnet-34", "inception-v3", "squeezenet-1.0"} {
		p, err := ByName(want)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want, err)
		}
		if p.Name != want {
			t.Errorf("ByName(%q).Name = %q", want, p.Name)
		}
	}
	if _, err := ByName("alexnet"); err == nil {
		t.Error("ByName(alexnet) expected error")
	}
}

func TestIntermediateSmallerThanInputSomewhere(t *testing.T) {
	// The premise of early-exit offloading: deeper cut points eventually have
	// smaller tensors than shallow ones, creating a compute/transmission
	// trade-off. Check the final intermediate tensor is smaller than the max.
	for _, p := range All() {
		maxBytes, last := 0.0, p.DataBytes(p.NumExits())
		for i := 1; i <= p.NumExits(); i++ {
			if b := p.DataBytes(i); b > maxBytes {
				maxBytes = b
			}
		}
		if last >= maxBytes {
			t.Errorf("%s: final tensor (%v B) should be smaller than the widest (%v B)", p.Name, last, maxBytes)
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := p.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			loaded, err := readJSON(&buf)
			if err != nil {
				t.Fatalf("readJSON: %v", err)
			}
			if loaded.Name != p.Name || loaded.NumExits() != p.NumExits() {
				t.Fatalf("header mismatch: %s/%d vs %s/%d", loaded.Name, loaded.NumExits(), p.Name, p.NumExits())
			}
			if loaded.InputBytes != p.InputBytes {
				t.Errorf("InputBytes %v != %v", loaded.InputBytes, p.InputBytes)
			}
			for i := 1; i <= p.NumExits(); i++ {
				if math.Abs(loaded.LayerFLOPs(i)-p.LayerFLOPs(i)) > 1e-9 {
					t.Errorf("element %d FLOPs differ", i)
				}
				if loaded.DataBytes(i) != p.DataBytes(i) {
					t.Errorf("element %d bytes differ", i)
				}
				if math.Abs(loaded.ExitClassifierFLOPs(i)-p.ExitClassifierFLOPs(i)) > 1e-9 {
					t.Errorf("element %d exit FLOPs differ", i)
				}
			}
		})
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"name":"x","unknown":1}`,
		`{"name":"x","input":{"H":1,"W":1,"C":1},"input_bytes":10,"elements":[]}`,
		`{"name":"x","input":{"H":1,"W":1,"C":1},"input_bytes":0,"elements":[
		  {"name":"a","flops":1,"out":{"H":1,"W":1,"C":1}},
		  {"name":"b","flops":1,"out":{"H":1,"W":1,"C":1}},
		  {"name":"c","flops":1,"out":{"H":1,"W":1,"C":1}}]}`,
	} {
		if _, err := readJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("garbage accepted: %s", bad)
		}
	}
}

// uncached returns a copy of p without prefix-sum caches, so its accessors
// take the naive O(m) loops.
func uncached(p *Profile) *Profile {
	return &Profile{Name: p.Name, Input: p.Input, InputBytes: p.InputBytes, Elements: p.Elements}
}

func TestPrefixSumCachesMatchNaive(t *testing.T) {
	for _, p := range All() {
		q := uncached(p)
		m := p.NumExits()
		for i := 0; i <= m; i++ {
			if got, want := p.CumulativeFLOPs(i), q.CumulativeFLOPs(i); got != want {
				t.Errorf("%s: CumulativeFLOPs(%d) = %v cached, %v naive", p.Name, i, got, want)
			}
			if got, want := p.DataBytes(i), q.DataBytes(i); got != want {
				t.Errorf("%s: DataBytes(%d) = %v cached, %v naive", p.Name, i, got, want)
			}
		}
		for i := 1; i <= m; i++ {
			if got, want := p.ExitClassifierFLOPs(i), q.ExitClassifierFLOPs(i); got != want {
				t.Errorf("%s: ExitClassifierFLOPs(%d) = %v cached, %v naive", p.Name, i, got, want)
			}
		}
		if got, want := p.TotalFLOPs(), q.TotalFLOPs(); got != want {
			t.Errorf("%s: TotalFLOPs = %v cached, %v naive", p.Name, got, want)
		}
	}
}

func TestStaleCacheFallsBackAfterAppend(t *testing.T) {
	p := VGG16()
	extra := p.Elements[len(p.Elements)-1]
	extra.FLOPs = 12345678
	p.Elements = append(p.Elements, extra)
	want := uncached(p).TotalFLOPs()
	if got := p.TotalFLOPs(); got != want {
		t.Fatalf("stale cache served: TotalFLOPs = %v, want %v", got, want)
	}
	if got := p.buildCaches().TotalFLOPs(); got != want {
		t.Fatalf("after buildCaches: TotalFLOPs = %v, want %v", got, want)
	}
}
