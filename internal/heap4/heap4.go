// Package heap4 is the 4-ary min-heap of 16-byte value nodes behind the
// simulation kernel's event queue. The workload engine's population merge
// orders the same Nodes with a monotone radix queue instead
// (internal/workload), since its keys never go below the last one popped.
//
// A Node is ordered by (Hi, Lo) as one unsigned 128-bit integer. Callers put
// their primary key in Hi (a non-negative virtual time, via TimeKey) and a
// unique tie-breaker in Lo, so the order is total and the pop sequence never
// depends on the heap's internal arrangement. Children of i live at
// 4i+1..4i+4: compared to a binary heap the tree is half as deep, so sift-up
// does half the comparisons, and a parent's four 16-byte children share one
// cache line on the way down.
//
// The functions work on caller-owned slices, so each caller keeps its own
// growth policy; nothing here allocates except Push's append at capacity.
package heap4

import (
	"math"
	"math/bits"
)

// Node is one heap entry: Hi is the primary key, Lo the tie-breaker.
type Node struct {
	Hi uint64
	Lo uint64
}

// TimeKey converts a non-negative time to order-preserving bits: IEEE-754
// bit patterns of non-negative floats sort in numeric order as unsigned
// integers. Negative zero normalizes to positive zero so it cannot sort as a
// huge unsigned value.
func TimeKey(t float64) uint64 {
	if t == 0 {
		return 0
	}
	return math.Float64bits(t)
}

// Less orders nodes by (Hi, Lo). It is a branch-free 128-bit unsigned
// compare (a borrow out of the double-word subtraction means a < b), which
// the sift loops depend on: heavy ties in Hi make a Hi-then-Lo branch pair
// unpredictable.
func Less(a, b Node) bool {
	_, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	_, borrow = bits.Sub64(a.Hi, b.Hi, borrow)
	return borrow != 0
}

// Push appends n and restores the heap order bottom-up.
func Push(h []Node, n Node) []Node {
	h = append(h, n)
	up(h, len(h)-1, n)
	return h
}

// Pop removes the least node and returns it with the shortened heap. It uses
// the bottom-up variant of sift-down: the root hole walks to a leaf along
// min-children (three comparisons per level, no early-exit test), then the
// former tail is sifted up from that leaf. The tail came from the bottom of
// the tree, so the up phase almost always ends within a level; for a full
// drain this does ~25% fewer comparisons than the classic sift-down and keeps
// the per-level loop free of unpredictable exits.
func Pop(h []Node) (Node, []Node) {
	top := h[0]
	n := len(h) - 1
	tail := h[n]
	h = h[:n]
	if n == 0 {
		return top, h
	}
	i := 0
	for {
		c := 4*i + 1
		if c+4 <= n {
			// Full fan-out: unrolled min-of-four.
			m := c
			if Less(h[c+1], h[m]) {
				m = c + 1
			}
			if Less(h[c+2], h[m]) {
				m = c + 2
			}
			if Less(h[c+3], h[m]) {
				m = c + 3
			}
			h[i] = h[m]
			i = m
			continue
		}
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < n; j++ {
			if Less(h[j], h[m]) {
				m = j
			}
		}
		h[i] = h[m]
		i = m
	}
	up(h, i, tail)
	return top, h
}

// up fills the hole at i with n, moving greater ancestors down into it.
func up(h []Node, i int, n Node) {
	for i > 0 {
		p := (i - 1) / 4
		if !Less(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
}

// Heapify establishes the heap order over arbitrary contents bottom-up
// (Floyd), O(n) instead of the O(n log n) of pushing every node.
func Heapify(h []Node) {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		down(h, i)
	}
}

// down sifts h[i] down, assuming both subtrees of i are heaps.
func down(h []Node, i int) {
	n := len(h)
	node := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		m := c
		for j := c + 1; j < end; j++ {
			if Less(h[j], h[m]) {
				m = j
			}
		}
		if !Less(h[m], node) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = node
}
