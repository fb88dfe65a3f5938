package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"atlarge/internal/exec"
	"atlarge/internal/sim"
)

// tracer collects the per-layer measurements of traced iterations, all from
// outside the program: one sim.Profile per simulation kernel (attached
// through the kernel observer and merged afterwards), executor task spans,
// and the benchmark's own timers around calls into each layer. A nil
// *tracer is valid and records nothing, so untraced iterations run the
// same code without clock reads.
type tracer struct {
	mu       sync.Mutex
	profiles []*sim.Profile
	timers   map[string]time.Duration
	counts   map[string]float64
	samples  map[string][]float64
}

func newTracer() *tracer {
	return &tracer{timers: map[string]time.Duration{}, counts: map[string]float64{}, samples: map[string][]float64{}}
}

// install attaches a fresh profile to every kernel created until uninstall.
func (t *tracer) install() {
	sim.SetKernelObserver(func(k *sim.Kernel) {
		p := sim.NewProfile()
		k.SetTracer(p)
		t.mu.Lock()
		t.profiles = append(t.profiles, p)
		t.mu.Unlock()
	})
}

func (t *tracer) uninstall() { sim.SetKernelObserver(nil) }

// timed runs f and, when tracing, adds its wall time to the named timer.
func (t *tracer) timed(name string, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.addTime(name, time.Since(start))
	return err
}

func (t *tracer) addTime(name string, d time.Duration) {
	t.mu.Lock()
	t.timers[name] += d
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// sample keeps one observation of a distribution (request latencies).
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// spanObserver returns the executor span hook, nil when not tracing (which
// keeps span recording off).
func (t *tracer) spanObserver() func(int, string, exec.TaskSpan, error) {
	if t == nil {
		return nil
	}
	return func(_ int, id string, sp exec.TaskSpan, _ error) {
		run := sp.End - sp.Start
		t.mu.Lock()
		t.timers["exec.run"] += run
		t.timers["exec.wait"] += sp.Wait
		t.timers["atlarge.exp."+trimID(id)] += run
		t.counts["exec.tasks"]++
		t.mu.Unlock()
	}
}

// eventModule maps each kernel event name to the layer whose handler it runs.
var eventModule = map[string]string{
	"dispatch":       "sched.dispatch",
	"task-finish":    "sched.task_finish",
	"job-arrive":     "sched.arrive",
	"feed":           "sched.arrive",
	"arrive":         "autoscale.handler",
	"eval":           "autoscale.handler",
	"sample":         "autoscale.handler",
	"task-done":      "autoscale.handler",
	"job-done":       "autoscale.handler",
	"vm-boot":        "autoscale.handler",
	"peer-join":      "p2p.handler",
	"peer-abort":     "p2p.handler",
	"peer-complete":  "p2p.handler",
	"seed-depart":    "p2p.handler",
	"progress":       "p2p.handler",
	"hour":           "mmog.handler",
	"world-tick":     "mmog.handler",
	"invoke":         "faas.handler",
	"complete":       "faas.handler",
	"expire":         "faas.handler",
	"workflow-start": "faas.handler",
	"orchestrate":    "faas.handler",
}

// tableRows are the self-time rows of the traced table, in print order. The
// handler rows come from kernel profiles; sim.other is task run time not
// spent in any handler (kernel queue, model set-up, in-task workload
// generation); the others are the benchmark's timers around layer calls;
// exec.idle is the pool capacity none of them used.
var tableRows = []string{
	"sched.dispatch", "sched.task_finish", "sched.arrive",
	"autoscale.handler", "p2p.handler", "mmog.handler", "faas.handler", "sim.unmapped",
	"sim.other", "atlarge.aggregate", "atlarge.render", "scenario.render",
	"workload.source", "workload.next", "dist.protocol", "api.server", "exec.idle",
}

// layerRow is one line of the traced table: a layer's self time per
// operation and its share of the pool capacity.
type layerRow struct {
	Layer string  `json:"layer"`
	Self  float64 `json:"self_s"`
	Share float64 `json:"share_pct"`
}

// analyse turns the tracer's totals over ops traced operations into
// per-operation layer metrics and the self-time table. capacity is the pool
// capacity of one operation in seconds (wall × workers). The exec.run timer
// is the task run time the handler rows are carved from; exec.wait sums
// each task's queue wait from the start of its plan.
func (t *tracer) analyse(r *result, ops int, capacity float64) {
	per := 1 / float64(ops)
	self := map[string]float64{}
	var handlers, fired, dispatchN, finishN float64
	for _, p := range t.profiles {
		for _, row := range p.Rows() {
			layer, ok := eventModule[row.Name]
			if !ok {
				layer = "sim.unmapped"
			}
			s := float64(row.WallNs) / 1e9
			self[layer] += s * per
			handlers += s
			fired += float64(row.Fired)
			switch row.Name {
			case "dispatch":
				dispatchN += float64(row.Fired)
			case "task-finish":
				finishN += float64(row.Fired)
			}
		}
	}
	taskRun := t.timers["exec.run"].Seconds()
	if taskRun > 0 {
		self["sim.other"] = max(taskRun-handlers, 0) * per
	}
	for _, name := range []string{"atlarge.aggregate", "atlarge.render", "scenario.render", "workload.source", "workload.next"} {
		self[name] = t.timers[name].Seconds() * per
	}
	if claims := t.timers["dist.worker"].Seconds(); claims > 0 {
		self["dist.protocol"] = (claims - taskRun) * per
	}
	self["api.server"] = t.timers["api.server"].Seconds() * per
	// Handler and task times are wall times. When more goroutines are
	// runnable than there are processors (tab9 simulates its rows and
	// policies concurrently; serve overlaps jobs), they include run-queue
	// waits and can sum past the capacity; shares are then of their sum.
	used := 0.0
	for _, name := range tableRows {
		used += self[name]
	}
	total := max(capacity, used)
	if used > capacity {
		r.Oversubscribed = used / capacity
	}
	self["exec.idle"] = total - used
	r.Table = r.Table[:0]
	for _, name := range tableRows {
		share := 0.0
		if total > 0 {
			share = 100 * self[name] / total
		}
		r.Table = append(r.Table, layerRow{Layer: name, Self: self[name], Share: share})
		r.set(name+"_pct", share, "%", ops)
	}
	for _, id := range experimentIDs {
		s := t.timers["atlarge.exp."+id].Seconds() * per
		share := 0.0
		if total > 0 {
			share = 100 * s / total
		}
		r.set("atlarge.exp_pct."+id, share, "%", ops)
		if s > 0 {
			r.set("atlarge.exp_s."+id, s, "s", ops)
		}
	}
	for _, mod := range []string{"autoscale", "p2p", "mmog", "faas"} {
		r.set(mod+".handler_s", self[mod+".handler"], "s", ops)
	}
	r.set("sim.kernels", float64(len(t.profiles))*per, "count", ops)
	r.set("sim.events", fired*per, "count", ops)
	r.set("sim.other_s", self["sim.other"], "s", ops)
	r.set("sched.dispatch_n", dispatchN*per, "count", ops)
	r.set("sched.dispatch_s", self["sched.dispatch"], "s", ops)
	r.set("sched.task_finish_n", finishN*per, "count", ops)
	r.set("sched.task_finish_s", self["sched.task_finish"], "s", ops)
	r.set("atlarge.aggregate_s", self["atlarge.aggregate"], "s", ops)
	r.set("atlarge.render_s", self["atlarge.render"], "s", ops)
	r.set("exec.tasks", t.counts["exec.tasks"]*per, "count", ops)
	r.set("exec.run_s", taskRun*per, "s", ops)
	r.set("exec.wait_s", t.timers["exec.wait"].Seconds()*per, "s", ops)
	busy := 0.0
	if capacity > 0 {
		busy = taskRun * per / capacity
	}
	r.set("exec.busy_ratio", busy, "ratio", ops)
	for name, v := range t.counts {
		if _, done := r.Metrics[name]; !done {
			r.set(name, v*per, unitOf(name), ops)
		}
	}
	for name, d := range t.timers {
		if _, done := r.Metrics[name+"_s"]; !done && !strings.HasPrefix(name, "atlarge.exp.") {
			r.set(name+"_s", d.Seconds()*per, "s", ops)
		}
	}
	for name, xs := range t.samples {
		r.set(name+"_p50", percentile(xs, 0.5), "s", len(xs))
	}
}

// unitOf is a counter's unit: as perLayer declares it, else ns for a
// "_ns" name and count otherwise.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	if strings.HasSuffix(name, "_ns") {
		return "ns"
	}
	return "count"
}

// fillLayers sets every per-layer metric a workload did not produce to 0:
// that layer did no work on this workload.
func fillLayers(r *result) {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, d.Unit, 0)
		}
	}
}

// printTable writes the traced self-time table, largest share first.
func printTable(w io.Writer, rows []layerRow, oversubscribed float64) {
	if oversubscribed > 0 {
		fmt.Fprintf(w, "  (rows sum to %.2f× the pool capacity: wall times include run-queue waits; shares are of their sum)\n", oversubscribed)
	}
	sorted := append([]layerRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Share > sorted[j].Share })
	fmt.Fprintf(w, "  %-22s %12s %8s\n", "layer", "self_s/op", "share")
	for _, row := range sorted {
		if row.Self == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s %12.6f %7.2f%%\n", row.Layer, row.Self, row.Share)
	}
}

// timingHandler wraps an HTTP handler and adds each request's service time
// to the named tracer timer, the response bytes to <counter>, and one
// sample per request to <timer>/<route> when route classifies it. The
// writer keeps http.Flusher, which the streaming handlers need.
type timingHandler struct {
	next    http.Handler
	tr      func() *tracer
	timer   string
	counter string
	route   func(*http.Request) string
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t := h.tr()
	if t == nil {
		h.next.ServeHTTP(w, req)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, req)
	d := time.Since(start)
	t.addTime(h.timer, d)
	if h.counter != "" {
		t.add(h.counter, float64(cw.n)/1024)
	}
	if h.route != nil {
		if route := h.route(req); route != "" {
			t.sample(route, d.Seconds())
		}
	}
}

// countingWriter counts response bytes and passes Flush through.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// trimID drops the replica suffix of an exec task ID ("tab9#0" → "tab9").
func trimID(id string) string {
	if i := strings.LastIndexByte(id, '#'); i >= 0 {
		return id[:i]
	}
	return id
}
