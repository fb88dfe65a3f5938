package sched

// statePage is the number of task states per arena page.
const statePage = 256

// stateArena holds a run's in-flight task states in fixed-size pages,
// addressed by a uint32 ref. A finished task's slot goes on a free list and
// is reused first; growth adds a page and never moves a state. Memory thus
// follows the peak number of in-flight tasks, not the trace length.
type stateArena struct {
	pages []*[statePage]TaskState
	free  []uint32 // released refs, reused last-in first-out
	n     uint32   // refs handed out from the pages so far
}

// at returns the state of ref.
func (a *stateArena) at(ref uint32) *TaskState {
	return &a.pages[ref/statePage][ref%statePage]
}

// alloc returns the ref of an empty slot.
func (a *stateArena) alloc() uint32 {
	if k := len(a.free); k > 0 {
		ref := a.free[k-1]
		a.free = a.free[:k-1]
		return ref
	}
	if int(a.n) == len(a.pages)*statePage {
		a.pages = append(a.pages, new([statePage]TaskState))
	}
	a.n++
	return a.n - 1
}

// release empties ref's slot, so it no longer keeps its job reachable, and
// makes it reusable.
func (a *stateArena) release(ref uint32) {
	*a.at(ref) = TaskState{}
	a.free = append(a.free, ref)
}

// live returns the number of slots in use.
func (a *stateArena) live() int { return int(a.n) - len(a.free) }

// reset empties every slot for a new run, keeping the pages.
func (a *stateArena) reset() {
	for _, p := range a.pages {
		clear(p[:])
	}
	a.free, a.n = a.free[:0], 0
}
