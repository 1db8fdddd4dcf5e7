// Frame-buffer pool: the one place wire-frame memory comes from and goes
// back to, for both directions. Buffers are size-classed, four classes per
// doubling from 4 KiB up to the largest legal frame, so a borrowed buffer is
// at most 25 % larger than asked (power-of-two classes held measurably more
// memory while multi-MB activations wait in a stage queue). Each class is a
// sync.Pool, so idle buffers are still dropped by the garbage collector and
// return to the OS; nothing here is sized, capped or tuned by a caller.
package rpc

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	// minFrameClass (4 KiB) is the smallest pooled buffer; every control
	// message and the 3 KB first-block frame fit it.
	minFrameClassLog2  = 12
	minFrameClass      = 1 << minFrameClassLog2
	classesPerDoubling = 4
	// maxFrameBuf is the largest buffer a legal frame needs: the encoder
	// holds the length prefix in front of a MaxMessageBytes payload.
	maxFrameBuf = maxMessageBytes + 4
)

// frameClasses holds one pool per class, the last being the first class
// that fits maxFrameBuf. A pool stores the pointer to a buffer's first byte
// (pointer-shaped, so Put boxes nothing); the class index implies the
// capacity.
var frameClasses [frameClassCount]sync.Pool

// frameClassCount is frameClass(maxFrameBuf)+1: MaxMessageBytes is 2^24,
// twelve doublings above minFrameClass, and the four extra bytes spill into
// the next quarter step.
const frameClassCount = (24-minFrameClassLog2)*classesPerDoubling + 2

// frameClass returns the index of the smallest class holding n bytes.
func frameClass(n int) int {
	if n <= minFrameClass {
		return 0
	}
	k := bits.Len(uint(n-1)) - 1 // 2^k < n <= 2^(k+1)
	quarter := 1 << (k - 2)
	steps := (n - 1<<k + quarter - 1) / quarter // 1..4 quarter steps above 2^k
	return (k-minFrameClassLog2)*classesPerDoubling + steps
}

// frameClassSize is the capacity of class i's buffers.
func frameClassSize(i int) int {
	k := minFrameClassLog2 + i/classesPerDoubling
	return 1<<k + (i%classesPerDoubling)<<(k-2)
}

// getFrameBuf returns a buffer of length n whose capacity is n's class
// size. The contents are whatever the previous frame left: callers
// overwrite [0, n) before reading it. Sizes no legal frame reaches (an
// encode that encodeFrame is about to reject) are plain allocations.
func getFrameBuf(n int) []byte {
	if n > maxFrameBuf {
		return make([]byte, n)
	}
	i := frameClass(n)
	size := frameClassSize(i)
	if p, _ := frameClasses[i].Get().(*byte); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	return make([]byte, size)[:n]
}

// putFrameBuf hands a buffer obtained from getFrameBuf back to its class.
// The caller must hold no reference into it afterwards. Only class-sized
// capacities are pooled, which leaves out exactly the over-limit
// allocations above.
func putFrameBuf(b []byte) {
	c := cap(b)
	if i := frameClass(c); i < frameClassCount && frameClassSize(i) == c {
		frameClasses[i].Put(unsafe.SliceData(b[:c]))
	}
}
