package model

import (
	"math"
	"strings"
	"testing"
)

func TestGraphBuilderSimpleChain(t *testing.T) {
	b := newGraphBuilder(Shape{H: 8, W: 8, C: 3})
	c := b.Conv(0, 16, 3, 1, 1)
	r := b.ReLU(c)
	b.MaxPool(r, 2, 2, 0)
	g := b.Finish()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.OutShape(); got != (Shape{H: 4, W: 4, C: 16}) {
		t.Errorf("OutShape = %v", got)
	}
	wantFLOPs := 2.0*3*3*3*8*8*16 + 8*8*16 + 4*4*4*16
	if got := g.FLOPs(); math.Abs(got-wantFLOPs) > 1e-9 {
		t.Errorf("FLOPs = %v, want %v", got, wantFLOPs)
	}
	if got := len(g.Convs()); got != 1 {
		t.Errorf("Convs = %d, want 1", got)
	}
}

func TestGraphBuilderBranches(t *testing.T) {
	in := Shape{H: 4, W: 4, C: 8}
	b := newGraphBuilder(in)
	left := b.Conv(0, 4, 1, 1, 0)
	right := b.Conv(0, 12, 3, 1, 1)
	b.Concat(left, right)
	g := b.Finish()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.OutShape(); got != (Shape{H: 4, W: 4, C: 16}) {
		t.Errorf("OutShape = %v", got)
	}
}

func TestGraphBuilderResidual(t *testing.T) {
	in := Shape{H: 4, W: 4, C: 8}
	b := newGraphBuilder(in)
	c1 := b.Conv(0, 8, 3, 1, 1)
	sum := b.Add(c1, 0)
	b.ReLU(sum)
	g := b.Finish()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.OutShape() != in {
		t.Errorf("residual output %v != input %v", g.OutShape(), in)
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	build := func() *graph {
		b := newGraphBuilder(Shape{H: 4, W: 4, C: 3})
		c := b.Conv(0, 8, 3, 1, 1)
		b.ReLU(c)
		return b.Finish()
	}
	cases := []struct {
		name    string
		mutate  func(g *graph)
		wantSub string
	}{
		{"empty", func(g *graph) { g.Nodes = nil }, "empty"},
		{"no input head", func(g *graph) { g.Nodes[0].Kind = opReLU }, "input"},
		{"forward reference", func(g *graph) { g.Nodes[1].Inputs = []int{2} }, "not topological"},
		{"conv shape lie", func(g *graph) { g.Nodes[1].Out.C = 99 }, "conv output"},
		{"conv input mismatch", func(g *graph) { g.Nodes[1].Conv.In.C = 7 }, "expects input"},
		{"relu shape change", func(g *graph) { g.Nodes[2].Out.C = 1 }, "relu"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := build()
			c.mutate(g)
			err := g.Validate()
			if err == nil {
				t.Fatal("corruption accepted")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestGraphValidatePoolAndAddAndConcatErrors(t *testing.T) {
	// Pool with a lying output shape.
	b := newGraphBuilder(Shape{H: 4, W: 4, C: 3})
	p := b.MaxPool(0, 2, 2, 0)
	_ = p
	g := b.Finish()
	g.Nodes[1].Out.H = 3
	if err := g.Validate(); err == nil {
		t.Error("pool shape lie accepted")
	}
	// Add with mismatched operands.
	b2 := newGraphBuilder(Shape{H: 4, W: 4, C: 3})
	c := b2.Conv(0, 8, 3, 1, 1)
	b2.Add(c, 0) // 8 channels + 3 channels
	if err := b2.Finish().Validate(); err == nil {
		t.Error("mismatched add accepted")
	}
	// Concat with a spatial mismatch.
	b3 := newGraphBuilder(Shape{H: 4, W: 4, C: 3})
	small := b3.MaxPool(0, 2, 2, 0)
	b3.Concat(small, 0)
	if err := b3.Finish().Validate(); err == nil {
		t.Error("spatially mismatched concat accepted")
	}
}

func TestAllArchitectureGraphsValidate(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for i, e := range p.Elements {
				if e.Graph == nil {
					t.Fatalf("element %d (%s) has no graph", i+1, e.Name)
				}
				if err := e.Graph.Validate(); err != nil {
					t.Errorf("element %d (%s): %v", i+1, e.Name, err)
				}
				if math.Abs(e.Graph.FLOPs()-e.FLOPs) > 1e-9*e.FLOPs {
					t.Errorf("element %d (%s): graph FLOPs %v != element %v", i+1, e.Name, e.Graph.FLOPs(), e.FLOPs)
				}
			}
		})
	}
}

func TestOpKindString(t *testing.T) {
	for kind, want := range map[opKind]string{
		opInput: "input", opConv: "conv", opReLU: "relu",
		opMaxPool: "maxpool", opAvgPool: "avgpool", opAdd: "add", opConcat: "concat",
		opKind(99): "opkind(99)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(kind), got, want)
		}
	}
}

func TestGraphNodeFLOPsPerKind(t *testing.T) {
	shape := Shape{H: 2, W: 2, C: 4}
	cases := []struct {
		node graphNode
		want float64
	}{
		{graphNode{Kind: opInput, Out: shape}, 0},
		{graphNode{Kind: opReLU, Out: shape}, 16},
		{graphNode{Kind: opAdd, Out: shape}, 16},
		{graphNode{Kind: opConcat, Out: shape}, 16},
		{graphNode{Kind: opMaxPool, Kernel: 3, Out: shape}, 9 * 16},
		{graphNode{Kind: opAvgPool, Kernel: 2, Out: shape}, 4 * 16},
	}
	for i, c := range cases {
		if got := c.node.FLOPs(); got != c.want {
			t.Errorf("case %d (%v): FLOPs = %v, want %v", i, c.node.Kind, got, c.want)
		}
	}
}
