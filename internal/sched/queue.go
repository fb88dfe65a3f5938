package sched

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"atlarge/internal/sim"
)

// blockCap is the most tasks one queue block holds.
const blockCap = 64

// slabMax caps how many blocks one slab allocation provides. Slabs start at
// one block and double, so a short queue takes one small allocation and a
// long one a few large ones.
const slabMax = 16

// block is a run of consecutive queue items with summaries that let a pass
// over the queue step over the whole block: the narrowest width and the
// shortest fastest-machine estimate of its items, both exact, and a mask
// with bit Job.ID&63 set for the job of each item. The mask may keep the
// bits of items that left the block.
type block struct {
	n       int
	minCPUs int
	minFast sim.Duration
	jobs    uint64
	items   [blockCap]qitem
}

// summarise recomputes the block's minima from its items. Estimates are
// compared with <: the builtin min of two floats must also order NaNs and
// signed zeros, and costs about twice as much here.
func (b *block) summarise() {
	c, f := int32(math.MaxInt32), sim.Duration(math.Inf(1))
	for _, it := range b.items[:b.n] {
		c = min(c, it.cpus)
		if it.fast < f {
			f = it.fast
		}
	}
	b.minCPUs, b.minFast = int(c), f
}

// add takes it into the block's summaries.
func (b *block) add(it qitem, bit uint8) {
	b.minCPUs = min(b.minCPUs, int(it.cpus))
	if it.fast < b.minFast {
		b.minFast = it.fast
	}
	b.jobs |= 1 << bit
}

// jobBit returns the job-mask bit of job ID id.
func jobBit(id int) uint8 { return uint8(id & 63) }

// mover is a task an ordering pass takes out of the queue and merges back:
// the item, its job's mask bit, and its rank, the number of kept tasks ahead
// of it when the pass began.
type mover struct {
	qitem
	rank int32
	bit  uint8
}

// taskQueue is the queue of eligible tasks: an ordered list of blocks, none
// of them empty.
type taskQueue struct {
	blocks []*block
	n      int // tasks queued, the sum of the blocks' lengths

	spare []*block // emptied blocks, reused before the slab
	slab  []block  // blocks not handed out yet
	grow  int      // the next slab's size

	starts []int   // merge scratch: the first index of each block
	flat   []qitem // shuffle scratch
}

// reset empties the queue for a new run, keeping its blocks.
func (q *taskQueue) reset() {
	q.spare = append(q.spare, q.blocks...)
	clear(q.blocks)
	q.blocks, q.n = q.blocks[:0], 0
}

// newBlock returns an empty block.
func (q *taskQueue) newBlock() *block {
	var b *block
	if k := len(q.spare); k > 0 {
		b = q.spare[k-1]
		q.spare = q.spare[:k-1]
	} else {
		if len(q.slab) == 0 {
			q.grow = min(max(2*q.grow, 1), slabMax)
			q.slab = make([]block, q.grow)
		}
		b = &q.slab[0]
		q.slab = q.slab[1:]
	}
	b.n, b.jobs = 0, 0
	b.summarise()
	return b
}

// push appends it, a task of the job with mask bit bit.
func (q *taskQueue) push(it qitem, bit uint8) {
	k := len(q.blocks)
	if k == 0 || q.blocks[k-1].n == blockCap {
		q.blocks = append(q.blocks, q.newBlock())
		k++
	}
	b := q.blocks[k-1]
	b.items[b.n] = it
	b.n++
	b.add(it, bit)
	q.n++
}

// settle records that block bi now holds only its first n items, which the
// caller compacted there, and returns the index of the block after it. An
// emptied block is dropped, and a block left small is folded into its
// predecessor when both fit in one.
func (q *taskQueue) settle(bi, n int) int {
	b := q.blocks[bi]
	if n == b.n {
		return bi + 1
	}
	q.n -= b.n - n
	b.n = n
	if n > 0 {
		b.summarise()
		if bi == 0 || n > blockCap/4 || q.blocks[bi-1].n+n > blockCap {
			return bi + 1
		}
		p := q.blocks[bi-1]
		copy(p.items[p.n:], b.items[:n])
		p.n += n
		p.minCPUs = min(p.minCPUs, b.minCPUs)
		p.minFast = min(p.minFast, b.minFast)
		p.jobs |= b.jobs
	}
	q.blocks = slices.Delete(q.blocks, bi, bi+1)
	q.spare = append(q.spare, b)
	return bi
}

// merge inserts the movers, sorted, back into the queue from the back. A
// mover lands before the first queued task, among those ahead of where the
// mover after it landed, for which before(x, k, y) holds, where y is the
// task and k its index. The predicate must be monotone over those tasks:
// false up to some index, true from there on.
func (q *taskQueue) merge(moved []mover, before func(x mover, k int, y qitem) bool) {
	if len(q.blocks) == 0 {
		for _, x := range moved {
			q.push(x.qitem, x.bit)
		}
		return
	}
	// The tasks ahead of the last landing spot have not moved, so their
	// indices are their block's start plus their offset. starts covers the
	// blocks up to cb, the block of the last landing spot.
	starts, start := q.starts[:0], 0
	for _, b := range q.blocks {
		starts = append(starts, start)
		start += b.n
	}
	cb := len(q.blocks) - 1
	limit := q.n // index of the last landing spot
	for r := len(moved) - 1; r >= 0; r-- {
		x := moved[r]
		// x lands at offset off of block bi: at the last landing spot
		// unless the task ahead of that spot is before x. A spot past index
		// 0 is never at the start of its block, so that task is in block cb.
		bi, off := cb, limit-starts[cb]
		if limit > 0 && before(x, limit-1, q.blocks[cb].items[off-1]) {
			// Find the first block whose first task is before x, trying cb
			// first; x lands in the block ahead of it, or at the end of that
			// block.
			fb := cb + 1
			if before(x, starts[cb], q.blocks[cb].items[0]) {
				fb = sort.Search(cb, func(b int) bool { return before(x, starts[b], q.blocks[b].items[0]) })
			}
			bi, off = 0, 0
			if fb > 0 {
				b, b0 := q.blocks[fb-1], starts[fb-1]
				bi, off = fb-1, 1+sort.Search(min(b.n, limit-b0)-1, func(i int) bool {
					return before(x, b0+1+i, b.items[1+i])
				})
			}
		}
		cb = q.insert(bi, off, x.qitem, x.bit)
		limit = starts[bi] + off
		if cb > bi {
			starts = append(starts[:bi+1], starts[bi]+q.blocks[bi].n)
		} else {
			starts = starts[:bi+1]
		}
	}
	q.starts = starts[:0]
}

// insert puts it before offset off of block bi, splitting a full block in
// halves first, and returns the index of the block it landed in. An item at
// offset blockCap/2 stays in the first half, so no item lands at offset 0 of
// a split-off block (merge relies on this).
func (q *taskQueue) insert(bi, off int, it qitem, bit uint8) int {
	b := q.blocks[bi]
	if b.n == blockCap {
		nb := q.newBlock()
		half := blockCap / 2
		nb.n = copy(nb.items[:], b.items[half:])
		b.n = half
		b.summarise()
		nb.summarise()
		nb.jobs = b.jobs
		q.blocks = slices.Insert(q.blocks, bi+1, nb)
		if off > half {
			bi, b, off = bi+1, nb, off-half
		}
	}
	copy(b.items[off+1:b.n+1], b.items[off:b.n])
	b.items[off] = it
	b.n++
	b.add(it, bit)
	q.n++
	return bi
}

// shuffle permutes the queue as r.Shuffle permutes a flat slice of it. The
// blocks keep their lengths, and each takes the union of the job masks.
func (q *taskQueue) shuffle(r *rand.Rand) {
	flat := q.flat[:0]
	var jobs uint64
	for _, b := range q.blocks {
		flat = append(flat, b.items[:b.n]...)
		jobs |= b.jobs
	}
	r.Shuffle(len(flat), func(i, j int) { flat[i], flat[j] = flat[j], flat[i] })
	rest := flat
	for _, b := range q.blocks {
		rest = rest[copy(b.items[:b.n], rest):]
		b.summarise()
		b.jobs = jobs
	}
	q.flat = flat[:0]
}
