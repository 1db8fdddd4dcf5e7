package model

import "fmt"

// RawInputBytes is the size of one raw CIFAR-10 task input on the wire:
// 32x32x3 8-bit pixels plus a small header.
const RawInputBytes = 32*32*3 + 16

// chain incrementally builds a Profile, tracking the running activation
// shape so every element's graph, FLOPs and output bytes stay
// self-consistent.
type chain struct {
	p     Profile
	shape Shape
}

func newChain(name string) *chain {
	s := Shape{H: 32, W: 32, C: 3}
	return &chain{
		p:     Profile{Name: name, Input: s, InputBytes: RawInputBytes},
		shape: s,
	}
}

// element appends one chain element whose internals are described by the
// graph the build callback assembles (node 0 is the element's input).
func (c *chain) element(name string, build func(b *graphBuilder)) {
	b := newGraphBuilder(c.shape)
	build(b)
	g := b.Finish()
	c.p.Elements = append(c.p.Elements, elementFromGraph(name, g))
	c.shape = g.OutShape()
}

// elementFromGraph derives every element field from its graph, so the
// analytic numbers are exactly what executing the graph performs.
func elementFromGraph(name string, g *graph) Element {
	convs := g.Convs()
	var convSum float64
	for _, cs := range convs {
		convSum += cs.FLOPs()
	}
	flops := g.FLOPs()
	return Element{
		Name:       name,
		FLOPs:      flops,
		Out:        g.OutShape(),
		Convs:      convs,
		ExtraFLOPs: flops - convSum,
		Graph:      g,
	}
}

// conv appends one convolutional element (conv + ReLU).
func (c *chain) conv(name string, outC, kernel, stride, pad int) {
	c.element(name, func(b *graphBuilder) {
		b.ReLU(b.Conv(0, outC, kernel, stride, pad))
	})
}

// pool folds a max-pool into the most recent element: the paper treats
// convolutional layers as the atomic chain elements, so pooling between them
// is charged to the preceding layer. The element's graph gains a pool node
// and its derived fields are refreshed.
func (c *chain) pool(kernel, stride int) {
	if len(c.p.Elements) == 0 {
		panic("model: pool before any element")
	}
	e := &c.p.Elements[len(c.p.Elements)-1]
	g := e.Graph
	last := len(g.Nodes) - 1
	in := g.Nodes[last].Out
	h := (in.H-kernel)/stride + 1
	w := (in.W-kernel)/stride + 1
	g.Nodes = append(g.Nodes, graphNode{
		Kind: opMaxPool, Kernel: kernel, Stride: stride,
		Inputs: []int{last}, Out: Shape{H: h, W: w, C: in.C},
	})
	*e = elementFromGraph(e.Name, g)
	c.shape = e.Out
}

// VGG16 returns the CIFAR-adapted VGG-16 profile: 13 convolutional layers
// (m = 13 candidate exits), max-pools folded into the preceding conv.
func VGG16() *Profile {
	b := newChain("vgg-16")
	widths := []struct {
		reps, c int
	}{{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}}
	layer := 0
	for _, st := range widths {
		for r := 0; r < st.reps; r++ {
			layer++
			b.conv(fmt.Sprintf("conv%d-%d", layer, st.c), st.c, 3, 1, 1)
		}
		b.pool(2, 2)
	}
	return b.done()
}

// basicBlock appends a ResNet-34 basic block: two 3x3 convolutions with a
// residual add (plus a 1x1 projection when the shape changes) and a final
// ReLU.
func (c *chain) basicBlock(name string, outC, stride int) {
	c.element(name, func(b *graphBuilder) {
		c1 := b.Conv(0, outC, 3, stride, 1)
		c2 := b.Conv(c1, outC, 3, 1, 1)
		skip := 0
		in := b.g.Nodes[0].Out
		if stride != 1 || in.C != outC {
			skip = b.Conv(0, outC, 1, stride, 0)
		}
		b.ReLU(b.Add(c2, skip))
	})
}

// ResNet34 returns the CIFAR-adapted ResNet-34 profile: a 3x3 stem plus 16
// basic residual blocks (m = 17 candidate exits).
func ResNet34() *Profile {
	b := newChain("resnet-34")
	b.conv("stem-conv3-64", 64, 3, 1, 1)
	stages := []struct {
		blocks, c, firstStride int
	}{{3, 64, 1}, {4, 128, 2}, {6, 256, 2}, {3, 512, 2}}
	for si, st := range stages {
		for r := 0; r < st.blocks; r++ {
			stride := 1
			if r == 0 {
				stride = st.firstStride
			}
			b.basicBlock(fmt.Sprintf("res%d-%d", si+1, r+1), st.c, stride)
		}
	}
	return b.done()
}

// inceptionModule appends a four-branch inception element: 1x1, 1x1->5x5,
// 1x1->3x3->3x3, and avg-pool->1x1 projection, concatenated on channels.
func (c *chain) inceptionModule(name string, b1, b5red, b5, b3red, b3, poolProj int) {
	c.element(name, func(b *graphBuilder) {
		br1 := b.Conv(0, b1, 1, 1, 0)
		m2 := b.Conv(0, b5red, 1, 1, 0)
		br2 := b.Conv(m2, b5, 5, 1, 2)
		m3 := b.Conv(0, b3red, 1, 1, 0)
		m3 = b.Conv(m3, b3, 3, 1, 1)
		br3 := b.Conv(m3, b3, 3, 1, 1)
		pp := b.AvgPool(0, 3, 1, 1)
		br4 := b.Conv(pp, poolProj, 1, 1, 0)
		b.Concat(br1, br2, br3, br4)
	})
}

// reductionModule appends a spatial-reduction inception element: strided
// 3x3, 1x1 -> 3x3 -> strided 3x3, and a strided max pool, concatenated.
func (c *chain) reductionModule(name string, b3, dredIn, dred int) {
	c.element(name, func(b *graphBuilder) {
		o1 := b.Conv(0, b3, 3, 2, 1)
		m := b.Conv(0, dredIn, 1, 1, 0)
		m = b.Conv(m, dred, 3, 1, 1)
		o2 := b.Conv(m, dred, 3, 2, 1)
		pb := b.MaxPool(0, 3, 2, 1)
		b.Concat(o1, o2, pb)
	})
}

// InceptionV3 returns the CIFAR-adapted Inception v3 profile: a 3-conv stem,
// three A modules, a reduction, five B modules, a reduction, and two C
// modules plus a 1x1 head (m = 16 candidate exits; the paper's experiments
// reference exits 1, 14 and 16 of its chain).
func InceptionV3() *Profile {
	b := newChain("inception-v3")
	b.conv("stem-conv3-32", 32, 3, 1, 1)
	b.conv("stem-conv3-48", 48, 3, 1, 1)
	b.conv("stem-conv3-64", 64, 3, 1, 1)
	b.pool(2, 2) // 16x16
	b.inceptionModule("inceptionA-1", 64, 48, 64, 64, 96, 32)
	b.inceptionModule("inceptionA-2", 64, 48, 64, 64, 96, 64)
	b.inceptionModule("inceptionA-3", 64, 48, 64, 64, 96, 64)
	b.reductionModule("reductionA", 384, 64, 96) // 8x8
	b.inceptionModule("inceptionB-1", 192, 128, 192, 128, 192, 192)
	b.inceptionModule("inceptionB-2", 192, 160, 192, 160, 192, 192)
	b.inceptionModule("inceptionB-3", 192, 160, 192, 160, 192, 192)
	b.inceptionModule("inceptionB-4", 192, 160, 192, 160, 192, 192)
	b.inceptionModule("inceptionB-5", 192, 192, 192, 192, 192, 192)
	b.reductionModule("reductionB", 320, 192, 192) // 4x4
	b.inceptionModule("inceptionC-1", 320, 384, 384, 448, 384, 192)
	b.inceptionModule("inceptionC-2", 320, 384, 384, 448, 384, 192)
	b.conv("head-conv1-512", 512, 1, 1, 0)
	return b.done()
}

// fireModule appends a SqueezeNet fire module: a 1x1 squeeze followed by
// parallel 1x1 and 3x3 expands, concatenated.
func (c *chain) fireModule(name string, squeeze, expand1, expand3 int) {
	c.element(name, func(b *graphBuilder) {
		sq := b.Conv(0, squeeze, 1, 1, 0)
		e1 := b.Conv(sq, expand1, 1, 1, 0)
		e3 := b.Conv(sq, expand3, 3, 1, 1)
		b.Concat(e1, e3)
	})
}

// SqueezeNet10 returns the CIFAR-adapted SqueezeNet 1.0 profile: a stem
// conv, eight fire modules with interleaved pools, and the final 1x1
// classifier conv (m = 10 candidate exits).
func SqueezeNet10() *Profile {
	b := newChain("squeezenet-1.0")
	b.conv("stem-conv3-96", 96, 3, 1, 1)
	b.pool(2, 2) // 16x16
	b.fireModule("fire2", 16, 64, 64)
	b.fireModule("fire3", 16, 64, 64)
	b.fireModule("fire4", 32, 128, 128)
	b.pool(2, 2) // 8x8
	b.fireModule("fire5", 32, 128, 128)
	b.fireModule("fire6", 48, 192, 192)
	b.fireModule("fire7", 48, 192, 192)
	b.fireModule("fire8", 64, 256, 256)
	b.pool(2, 2) // 4x4
	b.fireModule("fire9", 64, 256, 256)
	b.conv("conv10-cls", 128, 1, 1, 0)
	return b.done()
}

func (c *chain) done() *Profile {
	out := c.p
	return out.buildCaches()
}

// All returns the four paper architectures, in the paper's evaluation order.
func All() []*Profile {
	return []*Profile{SqueezeNet10(), VGG16(), InceptionV3(), ResNet34()}
}

// ByName returns the named profile or an error listing valid names.
func ByName(name string) (*Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, 4)
	for _, p := range All() {
		names = append(names, p.Name)
	}
	return nil, fmt.Errorf("model: unknown profile %q (have %v)", name, names)
}
