package model

import "fmt"

// opKind enumerates the primitive operations a chain element's internal
// graph can contain.
type opKind int

// Primitive operation kinds.
const (
	// opInput is the graph's single entry node.
	opInput opKind = iota + 1
	// opConv is a 2D convolution.
	opConv
	// opReLU is an elementwise rectifier.
	opReLU
	// opMaxPool is a max pooling window.
	opMaxPool
	// opAvgPool is an average pooling window.
	opAvgPool
	// opAdd is an elementwise sum of two inputs (residual connections).
	opAdd
	// opConcat concatenates inputs on the channel axis (inception/fire).
	opConcat
)

// String names the operation kind as it appears in profile tables.
func (k opKind) String() string {
	switch k {
	case opInput:
		return "input"
	case opConv:
		return "conv"
	case opReLU:
		return "relu"
	case opMaxPool:
		return "maxpool"
	case opAvgPool:
		return "avgpool"
	case opAdd:
		return "add"
	case opConcat:
		return "concat"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// graphNode is one primitive operation inside an element graph. Inputs
// reference earlier nodes only, so a Graph is a DAG by construction.
type graphNode struct {
	// Kind selects the operation.
	Kind opKind
	// Conv holds the convolution parameters when Kind == opConv; its In
	// field records the expected input shape.
	Conv convSpec
	// Kernel, Stride and Pad parameterize pooling nodes.
	Kernel, Stride, Pad int
	// Inputs are the indices of the node's operands.
	Inputs []int
	// Out is the node's output shape.
	Out Shape
}

// FLOPs returns the node's operation count: convolutions count multiply-adds
// as 2, pools count one comparison/add per window element, elementwise and
// concat nodes count one operation per output element.
func (n graphNode) FLOPs() float64 {
	switch n.Kind {
	case opConv:
		return n.Conv.FLOPs()
	case opMaxPool, opAvgPool:
		return float64(n.Kernel*n.Kernel) * float64(n.Out.elems())
	case opReLU, opAdd, opConcat:
		return float64(n.Out.elems())
	default:
		return 0
	}
}

// graph is the executable internal structure of one chain element: a DAG of
// primitive operations from a single input node to a single output (the last
// node). The analytic FLOPs of an element are defined as the sum over its
// graph's nodes — so the numbers every LEIME decision consumes are exactly
// what execution performs.
type graph struct {
	// Nodes are in topological order; Nodes[0] is the opInput node and the
	// last node is the element's output.
	Nodes []graphNode
}

// OutShape returns the graph's output shape.
func (g *graph) OutShape() Shape { return g.Nodes[len(g.Nodes)-1].Out }

// FLOPs returns the total operation count of the graph.
func (g *graph) FLOPs() float64 {
	var sum float64
	for _, n := range g.Nodes {
		sum += n.FLOPs()
	}
	return sum
}

// Convs returns the graph's convolutions in topological order.
func (g *graph) Convs() []convSpec {
	var out []convSpec
	for _, n := range g.Nodes {
		if n.Kind == opConv {
			out = append(out, n.Conv)
		}
	}
	return out
}

// Validate checks structural soundness: topological input references, shape
// agreement along every edge, and well-formed operands.
func (g *graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("model: empty graph")
	}
	if g.Nodes[0].Kind != opInput {
		return fmt.Errorf("model: graph node 0 must be the input, got %v", g.Nodes[0].Kind)
	}
	for i, n := range g.Nodes {
		if i == 0 {
			continue
		}
		for _, in := range n.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("model: node %d (%v) references node %d (not topological)", i, n.Kind, in)
			}
		}
		switch n.Kind {
		case opConv:
			if len(n.Inputs) != 1 {
				return fmt.Errorf("model: node %d: conv needs exactly 1 input", i)
			}
			if got := g.Nodes[n.Inputs[0]].Out; got != n.Conv.In {
				return fmt.Errorf("model: node %d: conv expects input %v, predecessor yields %v", i, n.Conv.In, got)
			}
			if n.Out != n.Conv.OutShape() {
				return fmt.Errorf("model: node %d: conv output recorded as %v, spec yields %v", i, n.Out, n.Conv.OutShape())
			}
		case opReLU:
			if len(n.Inputs) != 1 || g.Nodes[n.Inputs[0]].Out != n.Out {
				return fmt.Errorf("model: node %d: relu must preserve its single input's shape", i)
			}
		case opMaxPool, opAvgPool:
			if len(n.Inputs) != 1 {
				return fmt.Errorf("model: node %d: pool needs exactly 1 input", i)
			}
			in := g.Nodes[n.Inputs[0]].Out
			h := (in.H+2*n.Pad-n.Kernel)/n.Stride + 1
			w := (in.W+2*n.Pad-n.Kernel)/n.Stride + 1
			if (n.Out != Shape{H: h, W: w, C: in.C}) {
				return fmt.Errorf("model: node %d: pool output recorded as %v, want %v", i, n.Out, Shape{H: h, W: w, C: in.C})
			}
		case opAdd:
			if len(n.Inputs) != 2 {
				return fmt.Errorf("model: node %d: add needs exactly 2 inputs", i)
			}
			a, b := g.Nodes[n.Inputs[0]].Out, g.Nodes[n.Inputs[1]].Out
			if a != b || a != n.Out {
				return fmt.Errorf("model: node %d: add shapes disagree (%v + %v -> %v)", i, a, b, n.Out)
			}
		case opConcat:
			if len(n.Inputs) < 2 {
				return fmt.Errorf("model: node %d: concat needs at least 2 inputs", i)
			}
			c := 0
			for _, in := range n.Inputs {
				s := g.Nodes[in].Out
				if s.H != n.Out.H || s.W != n.Out.W {
					return fmt.Errorf("model: node %d: concat operand %v mismatches spatial %dx%d", i, s, n.Out.H, n.Out.W)
				}
				c += s.C
			}
			if c != n.Out.C {
				return fmt.Errorf("model: node %d: concat channels sum to %d, recorded %d", i, c, n.Out.C)
			}
		default:
			return fmt.Errorf("model: node %d: unexpected kind %v", i, n.Kind)
		}
	}
	return nil
}

// graphBuilder assembles a Graph incrementally; each method appends a node
// and returns its index for later reference.
type graphBuilder struct {
	g graph
}

// newGraphBuilder starts a graph with the given input shape; the input node
// has index 0.
func newGraphBuilder(in Shape) *graphBuilder {
	b := &graphBuilder{}
	b.g.Nodes = append(b.g.Nodes, graphNode{Kind: opInput, Out: in})
	return b
}

// Conv appends a convolution reading from node in.
func (b *graphBuilder) Conv(in, outC, kernel, stride, pad int) int {
	spec := convSpec{In: b.g.Nodes[in].Out, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad}
	return b.add(graphNode{Kind: opConv, Conv: spec, Inputs: []int{in}, Out: spec.OutShape()})
}

// ReLU appends a rectifier reading from node in.
func (b *graphBuilder) ReLU(in int) int {
	return b.add(graphNode{Kind: opReLU, Inputs: []int{in}, Out: b.g.Nodes[in].Out})
}

// MaxPool appends a max pool reading from node in.
func (b *graphBuilder) MaxPool(in, kernel, stride, pad int) int {
	return b.pool(opMaxPool, in, kernel, stride, pad)
}

// AvgPool appends an average pool reading from node in.
func (b *graphBuilder) AvgPool(in, kernel, stride, pad int) int {
	return b.pool(opAvgPool, in, kernel, stride, pad)
}

func (b *graphBuilder) pool(kind opKind, in, kernel, stride, pad int) int {
	s := b.g.Nodes[in].Out
	h := (s.H+2*pad-kernel)/stride + 1
	w := (s.W+2*pad-kernel)/stride + 1
	return b.add(graphNode{
		Kind: kind, Kernel: kernel, Stride: stride, Pad: pad,
		Inputs: []int{in}, Out: Shape{H: h, W: w, C: s.C},
	})
}

// Add appends an elementwise sum of nodes a and b.
func (b *graphBuilder) Add(a, c int) int {
	return b.add(graphNode{Kind: opAdd, Inputs: []int{a, c}, Out: b.g.Nodes[a].Out})
}

// Concat appends a channel concatenation of the given nodes.
func (b *graphBuilder) Concat(ins ...int) int {
	first := b.g.Nodes[ins[0]].Out
	c := 0
	for _, in := range ins {
		c += b.g.Nodes[in].Out.C
	}
	inputs := make([]int, len(ins))
	copy(inputs, ins)
	return b.add(graphNode{Kind: opConcat, Inputs: inputs, Out: Shape{H: first.H, W: first.W, C: c}})
}

func (b *graphBuilder) add(n graphNode) int {
	b.g.Nodes = append(b.g.Nodes, n)
	return len(b.g.Nodes) - 1
}

// Finish returns the built graph; the last appended node is the output.
func (b *graphBuilder) Finish() *graph {
	out := b.g
	return &out
}
