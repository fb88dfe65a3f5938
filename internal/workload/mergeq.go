package workload

import (
	"math/bits"

	"atlarge/internal/heap4"
)

// mergeQueue is a monotone radix priority queue of heap4 nodes (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990): every pushed key must be at least the
// last popped key. A population merge satisfies that by construction — a
// client's next arrival is never before its current one — and gets pops in
// amortised O(key bits) with sequential memory access, where a heap over 10⁶
// cursors pays a cache miss per level.
//
// Keys are (Hi, Lo) as one unsigned 128-bit integer, ordered as heap4.Less.
// Bucket 0 holds keys equal to the last popped key; bucket b ≥ 1 holds keys
// whose highest bit differing from it is bit b-1. Each bucket is a stack of
// fixed chunks from one arena sized at construction; only the top chunk of a
// stack is partly filled, so the queue never needs more than
// ceil(n/chunkLen) + min(n, buckets) chunks for n keys, and never allocates
// after construction.
type mergeQueue struct {
	last     heap4.Node
	stacks   [buckets]stack
	nonEmpty [(buckets + 63) / 64]uint64
	chunks   []chunk
	free     int32 // first chunk of the free list, -1 when none is left
}

type chunk struct {
	nodes [chunkLen]heap4.Node
	next  int32 // the chunk below this one in its stack, or the next free one
}

// stack is one bucket: its top chunk (-1 when empty) and the nodes in that
// chunk. An empty stack counts as full, so add tests one field.
type stack struct{ top, fill int32 }

const (
	buckets  = 129
	chunkLen = 128
)

var emptyStack = stack{top: -1, fill: chunkLen}

// newMergeQueue returns an empty queue that holds up to n keys at once.
func newMergeQueue(n int) mergeQueue {
	// One extra chunk covers the chunk a redistribution is reading while
	// its keys move down; the other is slack.
	chunks := (n+chunkLen-1)/chunkLen + min(n, buckets) + 2
	q := mergeQueue{chunks: make([]chunk, chunks)}
	for c := range q.chunks {
		q.chunks[c].next = int32(c) + 1
	}
	q.chunks[chunks-1].next = -1
	for b := range q.stacks {
		q.stacks[b] = emptyStack
	}
	return q
}

// push inserts n, which must not be less than the last popped key.
func (q *mergeQueue) push(n heap4.Node) {
	if heap4.Less(n, q.last) {
		panic("workload: merge queue key pushed below the last popped key")
	}
	q.add(bucket(n, q.last), n)
}

// pop removes and returns the least key; the queue must not be empty.
func (q *mergeQueue) pop() heap4.Node {
	s := &q.stacks[0]
	if s.top < 0 {
		return q.popLowest()
	}
	s.fill--
	n := q.chunks[s.top].nodes[s.fill]
	if s.fill == 0 {
		c := s.top
		*s = stack{top: q.chunks[c].next, fill: chunkLen}
		q.release(c)
		if s.top < 0 {
			q.nonEmpty[0] &^= 1
		}
	}
	return n
}

// bucket is the index of n's bucket relative to the last popped key last.
func bucket(n, last heap4.Node) int {
	if x := n.Hi ^ last.Hi; x != 0 {
		return 64 + bits.Len64(x)
	}
	return bits.Len64(n.Lo ^ last.Lo)
}

// add pushes n onto bucket b's stack.
func (q *mergeQueue) add(b int, n heap4.Node) {
	s := &q.stacks[b]
	if s.fill == chunkLen {
		q.grow(s, b)
	}
	q.chunks[s.top].nodes[s.fill] = n
	s.fill++
}

// grow puts a fresh chunk on top of s, bucket b's stack. The pool is sized
// so it never runs dry; if it did, free would be -1 and the index would
// panic.
func (q *mergeQueue) grow(s *stack, b int) {
	c := q.free
	q.free = q.chunks[c].next
	q.chunks[c].next = s.top
	*s = stack{top: c}
	q.nonEmpty[b>>6] |= 1 << (b & 63)
}

func (q *mergeQueue) release(c int32) {
	q.chunks[c].next = q.free
	q.free = c
}

// popLowest pops the least key while bucket 0 is empty. It empties the
// lowest non-empty bucket, makes its least key the last popped key and moves
// the others down: every key in the bucket shares the new last key's bits from
// the bucket's bit up, so each lands in a strictly lower bucket. Keys in
// higher buckets keep their index.
func (q *mergeQueue) popLowest() heap4.Node {
	b := -1
	for w, x := range q.nonEmpty {
		if x != 0 {
			b = w*64 + bits.TrailingZeros64(x)
			break
		}
	}
	s := q.stacks[b]
	q.stacks[b] = emptyStack
	q.nonEmpty[b>>6] &^= 1 << (b & 63)

	least := q.chunks[s.top].nodes[0]
	for c, k := s.top, s.fill; c >= 0; c, k = q.chunks[c].next, chunkLen {
		for _, n := range q.chunks[c].nodes[:k] {
			if heap4.Less(n, least) {
				least = n
			}
		}
	}
	q.last = least
	popped := false
	for c, k := s.top, s.fill; c >= 0; k = chunkLen {
		for _, n := range q.chunks[c].nodes[:k] {
			if !popped && n == least {
				popped = true
				continue
			}
			q.add(bucket(n, least), n)
		}
		below := q.chunks[c].next
		q.release(c)
		c = below
	}
	return least
}
