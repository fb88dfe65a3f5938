package sim

import (
	"sort"
	"sync/atomic"
	"time"
)

// Tracer observes the kernel's event lifecycle. A kernel with a nil tracer
// (the default) pays nothing beyond one predictable branch per hook site —
// no allocation, no time.Now call — which is what keeps the bench-compare
// gate honest with tracing merely compiled in.
//
// Hook semantics:
//
//   - EventScheduled fires on every At/After call, after the event is queued.
//   - EventFired fires after the handler returns, with the wall-clock time
//     the handler took. Virtual time (at) is the handler's own Now.
//   - EventCancelled fires when a cancelled event is discarded at the head
//     of the queue — cancellation itself (EventRef.Cancel) is a flag flip
//     with no kernel access, so events cancelled but never reached by the
//     run (queue abandoned, horizon) are not reported.
//   - RandAccess fires on every Kernel.Rand call. It is the kernel-visible
//     proxy for RNG draws: model code conventionally fetches the stream at
//     the draw site, so access counts track draw pressure per stream.
//
// Implementations are called from the kernel's own goroutine only; they need
// no locking unless shared across kernels.
type Tracer interface {
	EventScheduled(name string, at, now Time)
	EventFired(name string, at Time, wall time.Duration)
	EventCancelled(name string, at, now Time)
	RandAccess(stream string, now Time)
}

// TraceKind classifies one TraceRecord.
type TraceKind uint8

// Trace record kinds, in the order the kernel can emit them.
const (
	TraceSchedule TraceKind = iota
	TraceFire
	TraceCancel
	TraceRand
)

// String returns the NDJSON spelling of the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSchedule:
		return "schedule"
	case TraceFire:
		return "fire"
	case TraceCancel:
		return "cancel"
	case TraceRand:
		return "rand"
	}
	return "unknown"
}

// TraceRecord is one kernel event observation. At is the event's virtual
// time (the target time for schedules and cancels, the firing time for
// fires, the access time for rand records); Now is the virtual time the
// observation was made. WallNs is the handler's wall-clock nanoseconds and
// is set only on fire records — it is the single nondeterministic field, so
// exporters keep it out of byte-compared sections.
type TraceRecord struct {
	Kind   TraceKind
	Name   string
	At     Time
	Now    Time
	WallNs int64
}

// DefaultTraceCap bounds a TraceLog when Max is left zero: enough for every
// event of a typical scenario cell, small enough that a traced sweep of many
// tasks stays in memory.
const DefaultTraceCap = 1 << 16

// TraceLog is a Tracer that records every observation in order, up to Max
// records (0 means DefaultTraceCap); later observations only count Dropped.
// The virtual-time fields of a log are deterministic: two kernels running
// the same seeded model produce identical records except WallNs.
type TraceLog struct {
	// Max bounds len(Records); set it before tracing starts.
	Max     int
	Records []TraceRecord
	Dropped uint64
}

func (l *TraceLog) cap() int {
	if l.Max > 0 {
		return l.Max
	}
	return DefaultTraceCap
}

func (l *TraceLog) record(r TraceRecord) {
	if len(l.Records) >= l.cap() {
		l.Dropped++
		return
	}
	l.Records = append(l.Records, r)
}

// EventScheduled implements Tracer.
func (l *TraceLog) EventScheduled(name string, at, now Time) {
	l.record(TraceRecord{Kind: TraceSchedule, Name: name, At: at, Now: now})
}

// EventFired implements Tracer.
func (l *TraceLog) EventFired(name string, at Time, wall time.Duration) {
	l.record(TraceRecord{Kind: TraceFire, Name: name, At: at, Now: at, WallNs: int64(wall)})
}

// EventCancelled implements Tracer.
func (l *TraceLog) EventCancelled(name string, at, now Time) {
	l.record(TraceRecord{Kind: TraceCancel, Name: name, At: at, Now: now})
}

// RandAccess implements Tracer.
func (l *TraceLog) RandAccess(stream string, now Time) {
	l.record(TraceRecord{Kind: TraceRand, Name: stream, At: now, Now: now})
}

// EventStats aggregates one event name's lifecycle counts and handler wall
// time.
type EventStats struct {
	Scheduled uint64
	Fired     uint64
	Cancelled uint64
	// WallNs is the total wall-clock nanoseconds spent in this event's
	// handlers; WallMaxNs the slowest single handler invocation.
	WallNs    int64
	WallMaxNs int64
}

// Profile is a Tracer that aggregates per-event-name counts, cancellation
// tallies, and handler wall time, plus per-stream RNG access counts. It is
// the built-in collector behind `atlarge trace` profile tables and the serve
// layer's kernel metrics. Like any Tracer it is single-goroutine; wrap it
// (see obs.SharedProfile) to share one aggregate across kernels.
type Profile struct {
	events  map[string]*EventStats
	streams map[string]uint64
}

// NewProfile returns an empty profile collector.
func NewProfile() *Profile {
	return &Profile{events: make(map[string]*EventStats), streams: make(map[string]uint64)}
}

func (p *Profile) stats(name string) *EventStats {
	s, ok := p.events[name]
	if !ok {
		s = &EventStats{}
		p.events[name] = s
	}
	return s
}

// EventScheduled implements Tracer.
func (p *Profile) EventScheduled(name string, _, _ Time) { p.stats(name).Scheduled++ }

// EventFired implements Tracer.
func (p *Profile) EventFired(name string, _ Time, wall time.Duration) {
	s := p.stats(name)
	s.Fired++
	s.WallNs += int64(wall)
	if int64(wall) > s.WallMaxNs {
		s.WallMaxNs = int64(wall)
	}
}

// EventCancelled implements Tracer.
func (p *Profile) EventCancelled(name string, _, _ Time) { p.stats(name).Cancelled++ }

// RandAccess implements Tracer.
func (p *Profile) RandAccess(stream string, _ Time) { p.streams[stream]++ }

// ProfileRow is one event name's aggregate, for sorted reporting.
type ProfileRow struct {
	Name string
	EventStats
}

// Rows returns the per-event aggregates sorted by name.
func (p *Profile) Rows() []ProfileRow {
	rows := make([]ProfileRow, 0, len(p.events))
	for name, s := range p.events {
		rows = append(rows, ProfileRow{Name: name, EventStats: *s})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// StreamRow is one RNG stream's access count.
type StreamRow struct {
	Stream   string
	Accesses uint64
}

// Streams returns the per-stream RNG access counts sorted by stream name.
func (p *Profile) Streams() []StreamRow {
	rows := make([]StreamRow, 0, len(p.streams))
	for name, n := range p.streams {
		rows = append(rows, StreamRow{Stream: name, Accesses: n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Stream < rows[j].Stream })
	return rows
}

// multiTracer fans one kernel's observations out to several tracers.
type multiTracer []Tracer

func (m multiTracer) EventScheduled(name string, at, now Time) {
	for _, t := range m {
		t.EventScheduled(name, at, now)
	}
}

func (m multiTracer) EventFired(name string, at Time, wall time.Duration) {
	for _, t := range m {
		t.EventFired(name, at, wall)
	}
}

func (m multiTracer) EventCancelled(name string, at, now Time) {
	for _, t := range m {
		t.EventCancelled(name, at, now)
	}
}

func (m multiTracer) RandAccess(stream string, now Time) {
	for _, t := range m {
		t.RandAccess(stream, now)
	}
}

// Tee combines tracers: every observation goes to each in order. Nil
// arguments are dropped; Tee of zero or one live tracer returns it directly.
func Tee(tracers ...Tracer) Tracer {
	live := make(multiTracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// kernelObserver, when set, is called once per kernel life: by NewKernel
// and by Reset, after which the kernel has no tracer. It is the
// process-level capture point tracing tools use to attach tracers to
// kernels constructed deep inside simulators, without every simulator
// having to thread a Tracer through its configuration, and a reused kernel
// gets a fresh tracer per run. The observer must be safe for concurrent
// calls — parallel sweep tasks start kernel lives concurrently.
var kernelObserver atomic.Pointer[func(*Kernel)]

// SetKernelObserver installs (or, with nil, removes) the process-wide
// kernel observer, called once per kernel life: NewKernel or Reset. Install
// before launching the run to trace and remove it afterwards; installing
// while unrelated simulations are running traces their kernels too.
func SetKernelObserver(f func(*Kernel)) {
	if f == nil {
		kernelObserver.Store(nil)
		return
	}
	kernelObserver.Store(&f)
}

// globalFired counts events fired by every kernel in the process. Kernels
// flush their local counter into it when Run returns, so the cost is one
// atomic add per Run, not per event.
var globalFired atomic.Uint64

// GlobalEventsFired reports the total events fired by all kernels of the
// process since start (flushed at each Run/Step return). The serve layer
// exports it as atlarge_kernel_events_total.
func GlobalEventsFired() uint64 { return globalFired.Load() }
