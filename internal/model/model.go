// Package model represents deep neural networks the way LEIME reasons about
// them: as a chain of atomic elements (convolutional layers, or convolutional
// blocks for residual/inception/fire architectures), each with an analytic
// floating-point-operation count and an intermediate-data size, plus a
// candidate early-exit classifier after every element.
//
// This package is the offline-profiling substrate of the reproduction: the
// original system obtained per-layer FLOPs and tensor sizes by profiling
// PyTorch models; here they are derived analytically from the published
// architectures at CIFAR-10 input resolution (32x32x3). Every decision LEIME
// makes (exit setting, partitioning, offloading) consumes only these numbers,
// never network weights.
package model

import (
	"fmt"
	"math"
)

// Shape is the spatial/channel shape of an activation tensor.
type Shape struct {
	H, W, C int
}

// elems returns the number of scalar elements in the shape.
func (s Shape) elems() int { return s.H * s.W * s.C }

// bytes returns the tensor size in bytes at float32 precision, which is what
// crosses the network when inference is partitioned after this tensor.
func (s Shape) bytes() float64 { return float64(s.elems()) * 4 }

// String renders the shape as HxWxC.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// convSpec describes one primitive convolution inside an element, with its
// concrete input shape, so FLOPs are reconstructible.
type convSpec struct {
	In     Shape
	OutC   int
	Kernel int
	Stride int
	Pad    int
}

// OutShape returns the convolution's output shape.
func (c convSpec) OutShape() Shape {
	h := (c.In.H+2*c.Pad-c.Kernel)/c.Stride + 1
	w := (c.In.W+2*c.Pad-c.Kernel)/c.Stride + 1
	return Shape{H: h, W: w, C: c.OutC}
}

// FLOPs returns the multiply–add operation count of the convolution
// (2 * K * K * Cin per output element).
func (c convSpec) FLOPs() float64 {
	out := c.OutShape()
	return 2 * float64(c.Kernel) * float64(c.Kernel) * float64(c.In.C) * float64(out.elems())
}

// Element is one atomic chain element: a convolutional layer or block, with
// any following pooling/activation folded into its cost. A candidate early
// exit sits after every element.
type Element struct {
	// Name labels the element (e.g. "conv3-64", "res64-2", "inceptionA-1").
	Name string
	// FLOPs is the element's total floating-point operation count (mu_l_i).
	FLOPs float64
	// Out is the activation shape after the element (and its folded pool).
	Out Shape
	// Convs lists the primitive convolutions the element comprises. May be
	// empty for synthetic profiles.
	Convs []convSpec
	// ExtraFLOPs is the non-convolutional cost folded into the element
	// (activations, pooling, residual adds, concatenation); FLOPs is always
	// the sum of the conv FLOPs and ExtraFLOPs.
	ExtraFLOPs float64
	// Graph is the element's executable internal structure; nil for
	// synthetic profiles. When present, FLOPs, Out and Convs are derived
	// from it, so the analytic numbers equal executed operation counts
	// (pinned per element by testdata/executed_flops.txt).
	Graph *graph
}

// outBytes is the intermediate-data size (d_l_i) if the chain is cut after
// this element.
func (e Element) outBytes() float64 { return e.Out.bytes() }

// exitHiddenUnits is the width of the first fully-connected layer in every
// early-exit classifier. The paper's exits are a pooling layer, two
// fully-connected layers, and a softmax (§II-B Task model).
const exitHiddenUnits = 128

// numClasses is the classifier output width (CIFAR-10).
const numClasses = 10

// ExitFLOPs returns the operation count of an early-exit classifier attached
// to an activation of the given shape: global average pool + FC(C->128) +
// FC(128->classes) + softmax.
func ExitFLOPs(s Shape) float64 {
	pool := float64(s.elems())
	fc1 := 2 * float64(s.C) * exitHiddenUnits
	fc2 := 2 * float64(exitHiddenUnits) * numClasses
	softmax := 3 * float64(numClasses)
	return pool + fc1 + fc2 + softmax
}

// Profile is a full chain profile of one DNN: the input, the ordered
// elements, and (implicitly) one candidate exit after each element. Exits
// are addressed with 1-based indices exit-1..exit-m to match the paper.
//
// Profiles built by this package (the architecture constructors and
// readJSON) carry prefix-sum caches that make CumulativeFLOPs, RangeFLOPs,
// DataBytes, ExitClassifierFLOPs and TotalFLOPs O(1); the exit-setting cost
// model and both solvers depend on this for their advertised complexity.
// The caches are derived from Elements and InputBytes: any code that
// mutates either after construction must call buildCaches again, or the
// cached accessors will serve stale numbers. A cache whose length no longer
// matches len(Elements) is ignored (the accessors fall back to the naive
// O(m) loops), so appending or truncating elements degrades to correct but
// slow; in-place FLOPs/shape edits are the silent-staleness case. A profile
// whose caches are built and never mutated afterwards is safe for
// concurrent readers.
type Profile struct {
	// Name is the architecture name (e.g. "inception-v3").
	Name string
	// Input is the input tensor shape.
	Input Shape
	// InputBytes is the size of a raw task input as transmitted over the
	// network (d_0). CIFAR-10 images travel as 8-bit pixels.
	InputBytes float64
	// Elements is the layer/block chain, in execution order. See the type
	// comment: mutating this slice invalidates the prefix-sum caches.
	Elements []Element

	// prefixFLOPs[i] is the backbone operation count of elements 1..i
	// (prefixFLOPs[0] == 0, len m+1).
	prefixFLOPs []float64
	// exitFLOPs[i-1] is ExitFLOPs(Elements[i-1].Out) (len m).
	exitFLOPs []float64
	// outBytes[i] is DataBytes(i): outBytes[0] == InputBytes, then the
	// per-element intermediate-data sizes (len m+1).
	outBytes []float64
}

// buildCaches (re)computes the profile's prefix-sum caches from Elements
// and InputBytes. Architecture constructors and readJSON call it; callers
// only need it after mutating Elements in place. It returns the profile for
// chaining.
func (p *Profile) buildCaches() *Profile {
	m := len(p.Elements)
	p.prefixFLOPs = make([]float64, m+1)
	p.exitFLOPs = make([]float64, m)
	p.outBytes = make([]float64, m+1)
	p.outBytes[0] = p.InputBytes
	for i, e := range p.Elements {
		p.prefixFLOPs[i+1] = p.prefixFLOPs[i] + e.FLOPs
		p.exitFLOPs[i] = ExitFLOPs(e.Out)
		p.outBytes[i+1] = e.outBytes()
	}
	return p
}

// cached reports whether the prefix-sum caches match the current element
// count; stale or absent caches route accessors to the naive loops.
func (p *Profile) cached() bool { return len(p.prefixFLOPs) == len(p.Elements)+1 }

// NumExits returns m, the number of candidate exits (one after each element).
func (p *Profile) NumExits() int { return len(p.Elements) }

// LayerFLOPs returns mu_l_i for the 1-based element index i.
func (p *Profile) LayerFLOPs(i int) float64 { return p.Elements[i-1].FLOPs }

// DataBytes returns d_l_i, the bytes crossing the network if the chain is
// cut after the 1-based element index i. DataBytes(0) returns the raw input
// size d_0.
func (p *Profile) DataBytes(i int) float64 {
	if p.cached() {
		return p.outBytes[i]
	}
	if i == 0 {
		return p.InputBytes
	}
	return p.Elements[i-1].outBytes()
}

// ExitClassifierFLOPs returns mu_exit_i for the 1-based exit index i.
func (p *Profile) ExitClassifierFLOPs(i int) float64 {
	if p.cached() {
		return p.exitFLOPs[i-1]
	}
	return ExitFLOPs(p.Elements[i-1].Out)
}

// TotalFLOPs returns the backbone operation count (no exit classifiers).
func (p *Profile) TotalFLOPs() float64 {
	return p.CumulativeFLOPs(len(p.Elements))
}

// CumulativeFLOPs returns the backbone operation count of elements 1..i
// (1-based, inclusive); CumulativeFLOPs(0) is 0.
func (p *Profile) CumulativeFLOPs(i int) float64 {
	if p.cached() {
		return p.prefixFLOPs[i]
	}
	var sum float64
	for j := 0; j < i; j++ {
		sum += p.Elements[j].FLOPs
	}
	return sum
}

// RangeFLOPs returns the backbone operation count of elements lo+1..hi
// (1-based, i.e. the work between cut points lo and hi).
func (p *Profile) RangeFLOPs(lo, hi int) float64 {
	return p.CumulativeFLOPs(hi) - p.CumulativeFLOPs(lo)
}

// Validate reports whether the profile is internally consistent: positive
// FLOPs, consistent conv shapes, and positive data sizes.
func (p *Profile) Validate() error {
	if len(p.Elements) < 3 {
		return fmt.Errorf("model: profile %q has %d elements, need at least 3 for a 3-exit ME-DNN", p.Name, len(p.Elements))
	}
	if p.InputBytes <= 0 {
		return fmt.Errorf("model: profile %q has non-positive input size", p.Name)
	}
	for i, e := range p.Elements {
		if e.FLOPs <= 0 {
			return fmt.Errorf("model: profile %q element %d (%s) has non-positive FLOPs", p.Name, i+1, e.Name)
		}
		if e.Out.elems() <= 0 {
			return fmt.Errorf("model: profile %q element %d (%s) has empty output shape", p.Name, i+1, e.Name)
		}
		convSum := e.ExtraFLOPs
		for _, c := range e.Convs {
			convSum += c.FLOPs()
		}
		if len(e.Convs) > 0 && math.Abs(convSum-e.FLOPs) > 1e-6*e.FLOPs {
			return fmt.Errorf("model: profile %q element %d (%s): conv specs + extra sum to %v FLOPs but element declares %v",
				p.Name, i+1, e.Name, convSum, e.FLOPs)
		}
		if e.Graph != nil {
			if err := e.Graph.Validate(); err != nil {
				return fmt.Errorf("model: profile %q element %d (%s): %w", p.Name, i+1, e.Name, err)
			}
			if math.Abs(e.Graph.FLOPs()-e.FLOPs) > 1e-6*e.FLOPs {
				return fmt.Errorf("model: profile %q element %d (%s): graph FLOPs %v != element FLOPs %v",
					p.Name, i+1, e.Name, e.Graph.FLOPs(), e.FLOPs)
			}
			if e.Graph.OutShape() != e.Out {
				return fmt.Errorf("model: profile %q element %d (%s): graph output %v != element output %v",
					p.Name, i+1, e.Name, e.Graph.OutShape(), e.Out)
			}
		}
	}
	return nil
}

// MEDNN is a multi-exit DNN built from a profile by selecting a First,
// Second and Third exit (the Third is always the original final exit,
// exit-m), and partitioning the chain into three blocks deployed on device,
// edge and cloud.
type MEDNN struct {
	// Profile is the underlying chain profile.
	Profile *Profile
	// E1, E2, E3 are the 1-based exit indices, E1 < E2 < E3 = m.
	E1, E2, E3 int
	// Sigma holds the exit probabilities [sigma_1, sigma_2, sigma_3] of the
	// three exits; Sigma[2] is always 1.
	Sigma [3]float64
}

// NewMEDNN validates the exit choice and builds the multi-exit network.
// sigma gives the cumulative exit probability at each of the m candidate
// exits (monotone non-decreasing, sigma[m-1] == 1).
func NewMEDNN(p *Profile, e1, e2 int, sigma []float64) (*MEDNN, error) {
	m := p.NumExits()
	if len(sigma) != m {
		return nil, fmt.Errorf("model: sigma has %d entries, profile %q has %d exits", len(sigma), p.Name, m)
	}
	if !(1 <= e1 && e1 < e2 && e2 < m) {
		return nil, fmt.Errorf("model: invalid exit combination (%d, %d, %d): need 1 <= e1 < e2 < m", e1, e2, m)
	}
	return &MEDNN{
		Profile: p,
		E1:      e1,
		E2:      e2,
		E3:      m,
		Sigma:   [3]float64{sigma[e1-1], sigma[e2-1], sigma[m-1]},
	}, nil
}

// BlockFLOPs returns [mu_1, mu_2, mu_3]: the operation counts of the three
// blocks, each including its exit classifier.
func (n *MEDNN) BlockFLOPs() [3]float64 {
	p := n.Profile
	return [3]float64{
		p.RangeFLOPs(0, n.E1) + p.ExitClassifierFLOPs(n.E1),
		p.RangeFLOPs(n.E1, n.E2) + p.ExitClassifierFLOPs(n.E2),
		p.RangeFLOPs(n.E2, n.E3) + p.ExitClassifierFLOPs(n.E3),
	}
}

// DataBytes returns [d_0, d_1, d_2]: the raw input size and the
// intermediate-data sizes after the First and Second exits.
func (n *MEDNN) DataBytes() [3]float64 {
	p := n.Profile
	return [3]float64{p.DataBytes(0), p.DataBytes(n.E1), p.DataBytes(n.E2)}
}

// String renders the exit combination compactly, e.g.
// "inception-v3{exit-1,exit-14,exit-16}".
func (n *MEDNN) String() string {
	return fmt.Sprintf("%s{exit-%d,exit-%d,exit-%d}", n.Profile.Name, n.E1, n.E2, n.E3)
}
