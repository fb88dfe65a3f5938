// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate shared by every simulator in this repository:
// the datacenter/cluster simulator, the BitTorrent ecosystem simulator, the
// MMOG world simulator, the FaaS platform simulator, and the autoscaling
// engines. It offers a virtual clock, a 4-ary-heap event queue with stable
// FIFO ordering for simultaneous events, named deterministic RNG streams,
// and run-termination conditions.
//
// A Kernel is single-goroutine by design: handlers run sequentially in
// virtual-time order, so simulation state needs no locking. Determinism is a
// first-class requirement — two runs with the same seed produce identical
// event orders and identical results.
//
// # Event storage
//
// Events live in a single growable slab indexed by uint32, never as
// individually heap-allocated structs: scheduling draws a slot from an
// intrusive free stack threaded through the slab, and the priority queue is
// a 4-ary min-heap of value nodes carrying the ordering keys (at, seq)
// alongside the slot index, so sift-up/down compare adjacent cache lines
// without chasing pointers. Steady-state Schedule/Fire therefore allocates
// nothing; cold start amortizes to O(log n) slab doublings.
//
// # Kernel lives
//
// A kernel serves one run per life. NewKernel starts the first life, and
// Reset starts a further one on the same storage: the slab, the heap and the
// named streams stay allocated, so a simulator that runs many short
// simulations grows them once. Each life is indistinguishable from a new
// kernel's: same event order, clock, counters and draws, and the kernel
// observer sees every life.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"atlarge/internal/heap4"
)

// Time is a point in virtual time, measured in seconds since the start of the
// simulation. Virtual time is a float64 so that rate-based models (bandwidth,
// Poisson arrivals) compose without rounding artifacts.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Handler is a callback invoked when an event fires. The kernel passes itself
// so handlers can schedule follow-up events.
type Handler func(k *Kernel)

// event is one slab slot: the callback and liveness state of a scheduled
// event. The ordering keys (at, seq) live in the heap node instead, so the
// slot is only touched at schedule, fire, and cancel-discard time. Fired and
// discarded slots return to the free stack and are reused by later At/After
// calls; gen distinguishes the incarnations so a stale EventRef cannot
// cancel a recycled slot.
type event struct {
	fn   Handler
	name string
	gen  uint32 // incremented every time the slot is recycled
	next uint32 // next slot in the free stack (meaningful only while free)
	dead bool   // cancelled
}

// Heap nodes are heap4.Node values: Hi is the event time as
// heap4.TimeKey(at) and Lo packs (seq, idx), so the hot sift loops never
// dereference the slab and compare (at, key) as one 128-bit integer. The
// key's high 40 bits are the schedule sequence number (the FIFO tie-breaker
// among simultaneous events) and the low 24 bits the slab index, so
// comparing keys compares sequence numbers — seq is unique per event, so the
// idx bits never decide an order.
const (
	idxBits = 24
	idxMask = 1<<idxBits - 1
	// maxSeq bounds the 40-bit sequence space: ~1.1e12 scheduled events per
	// kernel. maxIdx bounds concurrently scheduled events at ~16.7M.
	maxSeq = 1<<(64-idxBits) - 1
	maxIdx = idxMask
)

// nodeIndex extracts the slab index from a heap node's key.
func nodeIndex(n heap4.Node) uint32 { return uint32(n.Lo & idxMask) }

// noEvent is the free-stack terminator.
const noEvent = ^uint32(0)

// nextCap is the slab/heap growth ladder: small kernels stay small (a churn
// sim with 8 live timers allocates 128 slots once), cold bulk schedules grow
// aggressively so a 4096-event load is reached in two growths, and very
// large queues fall back to doubling so overshoot stays bounded.
func nextCap(c int) int {
	switch {
	case c == 0:
		return 128
	case c < 1024:
		return c * 8
	case c < 65536:
		return c * 4
	}
	return c * 2
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// EventRef is valid and cancels nothing.
type EventRef struct {
	k   *Kernel
	idx uint32
	gen uint32
}

// Cancel marks the referenced event as dead; the kernel discards it when it
// reaches the head of the queue. Cancelling an already-fired or already-
// cancelled event is a no-op: the slot's generation counter advances when
// the slot is recycled, so a stale reference can never kill the slot's next
// occupant.
func (r EventRef) Cancel() {
	if r.k == nil {
		return
	}
	// A Reset empties the slab but keeps every slot, so a reference from an
	// earlier life indexes within capacity and meets a bumped generation.
	if e := &r.k.events[:cap(r.k.events)][r.idx]; e.gen == r.gen {
		e.dead = true
	}
}

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop rather than by queue exhaustion or horizon.
var ErrStopped = errors.New("sim: stopped")

// Kernel is a discrete-event simulation engine.
//
// The zero value is not usable; construct with NewKernel. Reset readies a
// used kernel for a further run, as NewKernel would, keeping its storage.
type Kernel struct {
	now      Time
	heap     []heap4.Node // 4-ary min-heap ordered by (at, seq)
	events   []event      // slab of event slots addressed by heap node indices
	freeHead uint32       // top of the intrusive free stack, noEvent when empty
	seq      uint64
	seed     int64
	streams  map[string]*rand.Rand
	stopped  bool
	horizon  Time // 0 means no horizon
	fired    uint64
	flushed  uint64 // portion of fired already added to globalFired
	tracer   Tracer
}

// NewKernel returns a kernel whose RNG streams derive deterministically from
// seed.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{
		seed:     seed,
		freeHead: noEvent,
	}
	k.observe()
	return k
}

// Reset readies k for a further run exactly as NewKernel(seed) would: the
// clock, the sequence numbers, Stop, the horizon and the fired count start
// over, pending events are dropped, references to earlier events cancel
// nothing, and every named stream restarts from its seed-derived state. It
// keeps the event slab, the heap and the streams, so a reused kernel grows
// none of them again. Events fired so far are flushed into the process-wide
// count first. The tracer is detached and the kernel observer is called, as
// for a new kernel, so each life gets its own trace.
func (k *Kernel) Reset(seed int64) {
	k.flushFired()
	for i := range k.events {
		e := &k.events[i]
		e.gen++
		e.fn, e.name, e.dead = nil, "", false
	}
	k.events, k.heap = k.events[:0], k.heap[:0]
	k.freeHead = noEvent
	k.now, k.seq, k.stopped, k.horizon = 0, 0, false, 0
	k.fired, k.flushed = 0, 0
	k.seed = seed
	for name, r := range k.streams {
		r.Seed(streamSeed(seed, name))
	}
	k.tracer = nil
	k.observe()
}

// observe hands the kernel, at the start of a life, to the kernel observer.
func (k *Kernel) observe() {
	if obs := kernelObserver.Load(); obs != nil {
		(*obs)(k)
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was constructed with. Seeds derived via
// DeriveSeed are unique per task, so tracing tools use the seed to attribute
// a kernel back to the experiment or scenario cell that created it.
func (k *Kernel) Seed() int64 { return k.seed }

// SetTracer attaches t to the kernel (nil detaches). Only events scheduled,
// fired, or discarded after the call are observed.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// flushFired folds events fired since the last flush into the process-wide
// counter; called once per Run/Step return so the per-event path stays free
// of atomics.
func (k *Kernel) flushFired() {
	if d := k.fired - k.flushed; d > 0 {
		globalFired.Add(d)
		k.flushed = k.fired
	}
}

// Pending reports how many events are scheduled (including cancelled events
// not yet discarded).
func (k *Kernel) Pending() int { return len(k.heap) }

// Rand returns the named deterministic RNG stream, creating it on first use.
// Distinct stream names decouple the random sequences of independent model
// components, so adding draws to one component does not perturb another.
func (k *Kernel) Rand(stream string) *rand.Rand {
	if k.tracer != nil {
		k.tracer.RandAccess(stream, k.now)
	}
	if r, ok := k.streams[stream]; ok {
		return r
	}
	r := rand.New(rand.NewSource(streamSeed(k.seed, stream)))
	if k.streams == nil {
		k.streams = make(map[string]*rand.Rand)
	}
	k.streams[stream] = r
	return r
}

// streamSeed derives the seed of a named stream from the kernel seed and the
// name's FNV-1a hash.
func streamSeed(seed int64, stream string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// Reserve pre-sizes the event slab and heap for at least n concurrently
// scheduled events, so a run whose live-event bound is known up front never
// grows either during the simulation. Reserving less than the current
// capacity is a no-op.
func (k *Kernel) Reserve(n int) {
	if n > cap(k.events) {
		// Copy every slot, not only the live ones: slots past the length
		// keep the generations a Reset bumped.
		ne := make([]event, len(k.events), n)
		copy(ne[:cap(k.events)], k.events[:cap(k.events)])
		k.events = ne
	}
	if n > cap(k.heap) {
		nh := make([]heap4.Node, len(k.heap), n)
		copy(nh, k.heap)
		k.heap = nh
	}
}

// growSlab grows the slab along the nextCap ladder. Growing by hand rather
// than through append keeps cold-start growth at O(log n) allocations;
// append's large-slice growth factor is smaller.
func (k *Kernel) growSlab() {
	ne := make([]event, len(k.events), nextCap(cap(k.events)))
	copy(ne, k.events)
	k.events = ne
}

// growHeap grows the heap along the nextCap ladder.
func (k *Kernel) growHeap() {
	nh := make([]heap4.Node, len(k.heap), nextCap(cap(k.heap)))
	copy(nh, k.heap)
	k.heap = nh
}

// push inserts n in heap order, growing the heap along the nextCap ladder.
func (k *Kernel) push(n heap4.Node) {
	if len(k.heap) == cap(k.heap) {
		k.growHeap()
	}
	k.heap = heap4.Push(k.heap, n)
}

// appendNode appends n without restoring heap order; callers must
// heap4.Heapify before the next pop. Used by the batch scheduling path.
func (k *Kernel) appendNode(n heap4.Node) {
	if len(k.heap) == cap(k.heap) {
		k.growHeap()
	}
	k.heap = append(k.heap, n)
}

// alloc takes a slot from the free stack (or the slab tail) and initializes
// it for one scheduled event.
func (k *Kernel) alloc(name string, fn Handler) uint32 {
	idx := k.freeHead
	if idx != noEvent {
		k.freeHead = k.events[idx].next
	} else {
		if len(k.events) == cap(k.events) {
			k.growSlab()
		}
		k.events = k.events[:len(k.events)+1]
		idx = uint32(len(k.events) - 1)
		if idx > maxIdx {
			panic("sim: too many concurrently scheduled events (2^24)")
		}
	}
	e := &k.events[idx]
	e.fn = fn
	e.name = name
	e.dead = false
	return idx
}

// nextKey stamps the next sequence number onto slab index idx.
func (k *Kernel) nextKey(idx uint32) uint64 {
	k.seq++
	if k.seq > maxSeq {
		panic("sim: kernel sequence space exhausted (2^40 events scheduled)")
	}
	return k.seq<<idxBits | uint64(idx)
}

// recycle returns a popped slot to the free stack. Bumping gen invalidates
// every outstanding EventRef to this incarnation.
func (k *Kernel) recycle(idx uint32) {
	e := &k.events[idx]
	e.gen++
	e.fn = nil
	e.name = ""
	e.dead = false
	e.next = k.freeHead
	k.freeHead = idx
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it would corrupt causality.
func (k *Kernel) At(at Time, name string, fn Handler) EventRef {
	if at < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, k.now))
	}
	idx := k.alloc(name, fn)
	k.push(heap4.Node{Hi: heap4.TimeKey(float64(at)), Lo: k.nextKey(idx)})
	if k.tracer != nil {
		k.tracer.EventScheduled(name, at, k.now)
	}
	return EventRef{k: k, idx: idx, gen: k.events[idx].gen}
}

// After schedules fn to run delay seconds from now. Negative delays panic.
func (k *Kernel) After(delay Duration, name string, fn Handler) EventRef {
	return k.At(k.now+delay, name, fn)
}

// BatchEvent is one entry of an AtBatch call.
type BatchEvent struct {
	At   Time
	Name string
	Fn   Handler
}

// batchUsesHeapify decides how a batch of n events enters a queue currently
// holding pending nodes: past roughly a quarter of the resulting queue, one
// O(queue) bottom-up heapify beats n O(log queue) sift-ups.
func batchUsesHeapify(n, pending int) bool {
	return n > (pending+n)/4
}

// AtBatch schedules every event of batch, equivalent to calling At for each
// in order (same sequence numbers, so the same FIFO tie-breaking) but with
// one heap rebuild when the batch is large relative to the queue: generators
// that schedule all arrivals up front pay O(n) instead of O(n log n) sifts.
// Batch events cannot be cancelled individually; use At when a ref is
// needed. Scheduling in the past panics, as with At.
func (k *Kernel) AtBatch(batch []BatchEvent) {
	if len(batch) == 0 {
		return
	}
	for i := range batch {
		if batch[i].At < k.now {
			panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", batch[i].Name, batch[i].At, k.now))
		}
	}
	bulk := batchUsesHeapify(len(batch), len(k.heap))
	for i := range batch {
		b := &batch[i]
		idx := k.alloc(b.Name, b.Fn)
		n := heap4.Node{Hi: heap4.TimeKey(float64(b.At)), Lo: k.nextKey(idx)}
		if bulk {
			k.appendNode(n)
		} else {
			k.push(n)
		}
		if k.tracer != nil {
			k.tracer.EventScheduled(b.Name, b.At, k.now)
		}
	}
	if bulk {
		heap4.Heapify(k.heap)
	}
}

// AfterEach schedules n occurrences of fn, the first period seconds from now
// and each subsequent one period after the previous — the batch equivalent
// of a self-rescheduling tick chain, without per-tick push costs or the n
// closures of AtBatch. Event times accumulate by repeated addition, so they
// are bit-identical to the times an equivalent chain of After calls would
// produce. Negative periods panic.
func (k *Kernel) AfterEach(period Duration, n int, name string, fn Handler) {
	if n <= 0 {
		return
	}
	if period < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled %v before now", name, period))
	}
	bulk := batchUsesHeapify(n, len(k.heap))
	at := k.now
	for i := 0; i < n; i++ {
		at += period
		idx := k.alloc(name, fn)
		node := heap4.Node{Hi: heap4.TimeKey(float64(at)), Lo: k.nextKey(idx)}
		if bulk {
			k.appendNode(node)
		} else {
			k.push(node)
		}
		if k.tracer != nil {
			k.tracer.EventScheduled(name, at, k.now)
		}
	}
	if bulk {
		heap4.Heapify(k.heap)
	}
}

// Stop terminates the run after the current handler returns.
func (k *Kernel) Stop() { k.stopped = true }

// SetHorizon makes Run and Step return once virtual time would exceed t.
// Events scheduled after the horizon are not executed.
func (k *Kernel) SetHorizon(t Time) { k.horizon = t }

// Run executes events in virtual-time order until the queue is empty, the
// horizon is reached, or Stop is called. It returns ErrStopped only for an
// explicit Stop; horizon exhaustion and queue exhaustion are normal
// termination and return nil.
func (k *Kernel) Run() error {
	defer k.flushFired()
	for len(k.heap) > 0 {
		if k.stopped {
			return ErrStopped
		}
		var n heap4.Node
		n, k.heap = heap4.Pop(k.heap)
		idx := nodeIndex(n)
		at := Time(math.Float64frombits(n.Hi))
		e := &k.events[idx]
		if e.dead {
			if k.tracer != nil {
				k.tracer.EventCancelled(e.name, at, k.now)
			}
			k.recycle(idx)
			continue
		}
		if k.horizon > 0 && at > k.horizon {
			k.now = k.horizon
			k.recycle(idx)
			return nil
		}
		if at < k.now {
			return fmt.Errorf("sim: causality violation: event %q at %v < now %v", e.name, at, k.now)
		}
		k.now = at
		k.fired++
		fn := e.fn
		if k.tracer == nil {
			k.recycle(idx)
			fn(k)
			continue
		}
		// Traced path: the name must outlive recycle, and only this branch
		// pays for the clock reads. The event reports to the tracer it
		// fired under, even if the handler detaches it or resets k.
		name, tr := e.name, k.tracer
		k.recycle(idx)
		start := time.Now()
		fn(k)
		tr.EventFired(name, at, time.Since(start))
	}
	if k.stopped {
		return ErrStopped
	}
	return nil
}

// Step executes exactly one pending live event and reports whether one was
// executed. It is intended for tests and debuggers. Step honors the horizon
// the same way Run does: a first-pending event past the horizon advances the
// clock to the horizon, discards that event, and reports false.
func (k *Kernel) Step() (bool, error) {
	defer k.flushFired()
	for len(k.heap) > 0 {
		var n heap4.Node
		n, k.heap = heap4.Pop(k.heap)
		idx := nodeIndex(n)
		at := Time(math.Float64frombits(n.Hi))
		e := &k.events[idx]
		if e.dead {
			if k.tracer != nil {
				k.tracer.EventCancelled(e.name, at, k.now)
			}
			k.recycle(idx)
			continue
		}
		if k.horizon > 0 && at > k.horizon {
			k.now = k.horizon
			k.recycle(idx)
			return false, nil
		}
		if at < k.now {
			return false, fmt.Errorf("sim: causality violation: event %q at %v < now %v", e.name, at, k.now)
		}
		k.now = at
		k.fired++
		fn := e.fn
		if k.tracer == nil {
			k.recycle(idx)
			fn(k)
			return true, nil
		}
		name, tr := e.name, k.tracer
		k.recycle(idx)
		start := time.Now()
		fn(k)
		tr.EventFired(name, at, time.Since(start))
		return true, nil
	}
	return false, nil
}
