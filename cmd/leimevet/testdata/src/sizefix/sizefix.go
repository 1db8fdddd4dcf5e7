// Package sizefix pins leimevet's size counters. Its exported top-level
// declarations are A, V, T, F, T.M, T.N, G, G.M, P and P.M: ten. This
// file is 32 lines long; sizefix_test.go adds neither lines nor names.
package sizefix

const A, b = 1, 2

var (
	V int
	w int
)

type T struct{}

type u struct{}

func F() {}

func g() {}

func (T) M()  {}
func (*T) N() {}
func (T) m()  {}
func (u) M()  {}

type G[X any] struct{}

func (G[X]) M() {}

type P[X, Y any] struct{}

func (*P[X, Y]) M() {}
