package sched

// statePage is the number of states per arena page.
const statePage = 256

// arena holds a run's in-flight states (task states, job states) in
// fixed-size pages, addressed by a uint32 ref. A released slot goes on a
// free list and is reused first; growth adds a page and never moves a
// state, so a pointer to a live state stays valid. Memory thus follows the
// peak number of in-flight states, not the trace length, and a simulator's
// pages serve all its later runs.
type arena[T any] struct {
	pages []*[statePage]T
	free  []uint32 // released refs, reused last-in first-out
	n     uint32   // refs handed out from the pages so far
}

// at returns the state of ref.
func (a *arena[T]) at(ref uint32) *T {
	return &a.pages[ref/statePage][ref%statePage]
}

// alloc returns the ref of an empty slot.
func (a *arena[T]) alloc() uint32 {
	if k := len(a.free); k > 0 {
		ref := a.free[k-1]
		a.free = a.free[:k-1]
		return ref
	}
	if int(a.n) == len(a.pages)*statePage {
		a.pages = append(a.pages, new([statePage]T))
	}
	a.n++
	return a.n - 1
}

// release empties ref's slot, so it no longer keeps its job reachable, and
// makes it reusable.
func (a *arena[T]) release(ref uint32) {
	var zero T
	*a.at(ref) = zero
	a.free = append(a.free, ref)
}

// live returns the number of slots in use.
func (a *arena[T]) live() int { return int(a.n) - len(a.free) }

// reset empties every slot for a new run, keeping the pages. Slots past
// the refs handed out were never written since the last reset.
func (a *arena[T]) reset() {
	for _, p := range a.pages[:(int(a.n)+statePage-1)/statePage] {
		clear(p[:])
	}
	a.free, a.n = a.free[:0], 0
}
