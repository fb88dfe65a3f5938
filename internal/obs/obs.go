// Package obs is the observability export layer: it captures kernel event
// traces (via sim.Tracer) and executor task spans (exec.TaskSpan), attributes
// them to the experiment or scenario-cell task that produced them, and
// serializes the result as NDJSON and as Chrome trace-event JSON loadable in
// Perfetto.
//
// Determinism contract: every virtual-time field of an exported trace is
// byte-identical across runs and across --parallel levels. Kernels are
// attributed by their seed — seeds derive from (base seed, task ID, replica)
// via atlarge.DeriveSeed, so they are stable no matter which worker or in
// what order the kernels were created. Wall-clock fields (handler ns, task
// spans, worker IDs) are inherently nondeterministic and are only emitted
// when explicitly requested (Trace.Wall).
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"atlarge"
	"atlarge/internal/exec"
	"atlarge/internal/sim"
)

// KernelCapture holds everything recorded from one kernel: the aggregate
// profile and the bounded event log. Seq distinguishes kernels constructed
// with the same seed inside one task (e.g. a portfolio policy probing
// sub-simulations), in creation order within that seed.
type KernelCapture struct {
	Seed    int64
	Seq     int
	Profile *sim.Profile
	Log     *sim.TraceLog
}

// Collector captures traces from every kernel created while installed. It is
// safe for concurrent use: parallel sweep workers create kernels
// concurrently, and each capture's tracer is then driven only by its
// kernel's own goroutine.
type Collector struct {
	mu       sync.Mutex
	captures []*KernelCapture
	perSeed  map[int64]int
}

// Install registers the collector as the process-wide kernel observer and
// returns the function that removes it. Typical use:
//
//	restore := c.Install()
//	defer restore()
//
// Only one observer exists per process; installing replaces any previous one.
func (c *Collector) Install() (restore func()) {
	sim.SetKernelObserver(func(k *sim.Kernel) {
		kc := &KernelCapture{
			Seed:    k.Seed(),
			Profile: sim.NewProfile(),
			Log:     &sim.TraceLog{},
		}
		c.mu.Lock()
		if c.perSeed == nil {
			c.perSeed = make(map[int64]int)
		}
		kc.Seq = c.perSeed[kc.Seed]
		c.perSeed[kc.Seed]++
		c.captures = append(c.captures, kc)
		c.mu.Unlock()
		k.SetTracer(sim.Tee(kc.Profile, kc.Log))
	})
	return func() { sim.SetKernelObserver(nil) }
}

// KernelSection is one kernel's capture labelled with the owning task. Trace
// exporters emit one section per kernel.
type KernelSection struct {
	// Task is the owning task's ID, or "kernel-<seed>" when the seed matches
	// no known task (a simulator that derived further sub-seeds).
	Task string
	// Index is the owning task's plan position; -1 for unattributed kernels.
	Index int
	Seed  int64
	Seq   int
	*KernelCapture
}

// Sections attributes the captures to the tasks of a plan laid out as
// every replica of ids[0], then of ids[1], and so on — the layout of the
// experiment runner and of the scenario engine — by the kernel seed
// atlarge.DeriveSeed(seed, id, replica) of each task, and returns them in
// the canonical deterministic order: attributed sections by (task index,
// seq), then unattributed ones by (seed, seq). Attribution needs no
// cooperation from the simulators.
func (c *Collector) Sections(seed int64, ids []string, replicas int) []KernelSection {
	replicas = max(replicas, 1)
	type task struct {
		index int
		id    string
	}
	tasks := make(map[int64]task, len(ids)*replicas)
	for i, id := range ids {
		for k := 0; k < replicas; k++ {
			tasks[atlarge.DeriveSeed(seed, id, k)] = task{i*replicas + k, id + "#" + strconv.Itoa(k)}
		}
	}

	c.mu.Lock()
	caps := make([]*KernelCapture, len(c.captures))
	copy(caps, c.captures)
	c.mu.Unlock()

	secs := make([]KernelSection, 0, len(caps))
	for _, kc := range caps {
		s := KernelSection{Seed: kc.Seed, Seq: kc.Seq, Index: -1, KernelCapture: kc}
		if t, ok := tasks[kc.Seed]; ok {
			s.Task = t.id
			s.Index = t.index
		} else {
			s.Task = fmt.Sprintf("kernel-%d", kc.Seed)
		}
		secs = append(secs, s)
	}
	sort.Slice(secs, func(i, j int) bool {
		a, b := secs[i], secs[j]
		if (a.Index >= 0) != (b.Index >= 0) {
			return a.Index >= 0 // attributed sections first
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Seq < b.Seq
	})
	return secs
}

// SpanEntry is one task's executor span, labelled for export.
type SpanEntry struct {
	Index  int
	ID     string
	Failed bool
	Span   exec.TaskSpan
}

// SpanLog accumulates executor task spans from a SpanObserver callback. Safe
// for concurrent use (observers run on the collection goroutine, but serve
// jobs may share one log across plans).
type SpanLog struct {
	mu      sync.Mutex
	entries []SpanEntry
}

// Observe records one task span; it has the SpanObserver signature the
// runner and scenario engine expect.
func (l *SpanLog) Observe(index int, id string, span exec.TaskSpan, err error) {
	l.mu.Lock()
	l.entries = append(l.entries, SpanEntry{Index: index, ID: id, Failed: err != nil, Span: span})
	l.mu.Unlock()
}

// Sorted returns the spans in plan order.
func (l *SpanLog) Sorted() []SpanEntry {
	l.mu.Lock()
	out := make([]SpanEntry, len(l.entries))
	copy(out, l.entries)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// SharedProfile is a sim.Tracer safe for concurrent use by many kernels at
// once, funnelling every observation into one aggregate sim.Profile. The
// serve layer attaches one to all kernels (--kernel-profile) and exports its
// rows as per-event-name metrics. The mutex cost is paid only by traced
// kernels; it is the price of a process-wide aggregate.
type SharedProfile struct {
	mu sync.Mutex
	p  *sim.Profile
}

// NewSharedProfile returns an empty concurrent profile aggregate.
func NewSharedProfile() *SharedProfile {
	return &SharedProfile{p: sim.NewProfile()}
}

// EventScheduled implements sim.Tracer.
func (s *SharedProfile) EventScheduled(name string, at, now sim.Time) {
	s.mu.Lock()
	s.p.EventScheduled(name, at, now)
	s.mu.Unlock()
}

// EventFired implements sim.Tracer.
func (s *SharedProfile) EventFired(name string, at sim.Time, wall time.Duration) {
	s.mu.Lock()
	s.p.EventFired(name, at, wall)
	s.mu.Unlock()
}

// EventCancelled implements sim.Tracer.
func (s *SharedProfile) EventCancelled(name string, at, now sim.Time) {
	s.mu.Lock()
	s.p.EventCancelled(name, at, now)
	s.mu.Unlock()
}

// RandAccess implements sim.Tracer.
func (s *SharedProfile) RandAccess(stream string, now sim.Time) {
	s.mu.Lock()
	s.p.RandAccess(stream, now)
	s.mu.Unlock()
}

// Rows returns a snapshot of the per-event aggregates, sorted by name.
func (s *SharedProfile) Rows() []sim.ProfileRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Rows()
}
