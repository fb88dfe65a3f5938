// Package metrics is a minimal, dependency-free metrics registry rendering
// the Prometheus text exposition format (version 0.0.4). It exists so
// `atlarge serve` can export saturation signals — queue depth, task
// throughput, cache hit ratio, per-endpoint latency histograms — without
// pulling the Prometheus client library into a simulation codebase.
//
// Supported instrument kinds: monotonically increasing counters (stored, or
// computed from a callback over an external counter), callback gauges, and
// fixed-bucket histograms. Counters and histograms come in labeled "vec"
// variants; series within a family render sorted by label values, so the
// output is deterministic for a fixed set of observations.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a fixed set of metric families and renders them in
// registration order. Register every family up front; observation methods
// are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []family
}

// family is one named metric with HELP/TYPE metadata and a sample renderer.
type family struct {
	name, help, typ string
	render          func(w io.Writer, name string)
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

func (r *Registry) add(name, help, typ string, render func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic("metrics: duplicate family " + name)
		}
	}
	r.families = append(r.families, family{name: name, help: help, typ: typ, render: render})
}

// Write renders every family in the Prometheus text format.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	families := append([]family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		f.render(w, f.name)
	}
	return nil
}

// Handler serves the registry as an HTTP endpoint (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Write(w)
	})
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelPairs renders {k1="v1",k2="v2"} for parallel name/value slices.
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + `="` + escapeLabel(values[i]) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// labelValues splits a series key back into its label values. The key of
// a family without labels is "", which holds no values, not one empty one.
func labelValues(labels []string, key string) []string {
	if len(labels) == 0 {
		return nil
	}
	return strings.Split(key, "\x00")
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from a callback at
// scrape time (for counts maintained elsewhere, e.g. the executor's
// completed-task total).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(name, help, "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	})
}

// GaugeFunc registers a gauge read from a callback at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	})
}

// GaugeVec is a family of callback gauges distinguished by label values.
type GaugeVec struct {
	labels []string
	mu     sync.Mutex
	series map[string]func() float64 // key = joined label values
	order  []string
}

// Set registers (or replaces) the gauge callback for one label-value tuple.
func (g *GaugeVec) Set(fn func() float64, values ...string) {
	if len(values) != len(g.labels) {
		panic("metrics: label arity mismatch")
	}
	key := strings.Join(values, "\x00")
	g.mu.Lock()
	if _, ok := g.series[key]; !ok {
		g.order = append(g.order, key)
		sort.Strings(g.order)
	}
	g.series[key] = fn
	g.mu.Unlock()
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	g := &GaugeVec{labels: labels, series: map[string]func() float64{}}
	r.add(name, help, "gauge", func(w io.Writer, name string) {
		g.mu.Lock()
		keys := append([]string(nil), g.order...)
		fns := make([]func() float64, len(keys))
		for i, k := range keys {
			fns[i] = g.series[k]
		}
		g.mu.Unlock()
		for i, k := range keys {
			fmt.Fprintf(w, "%s%s %s\n", name, labelPairs(g.labels, labelValues(g.labels, k)), formatFloat(fns[i]()))
		}
	})
	return g
}

// CounterVec is a family of counters distinguished by label values; series
// are created on first use.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	series map[string]*Counter
}

// With returns the counter for a label-value tuple, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic("metrics: label arity mismatch")
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[key]
	if !ok {
		c = &Counter{}
		v.series[key] = c
	}
	return c
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, series: map[string]*Counter{}}
	r.add(name, help, "counter", func(w io.Writer, name string) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.series))
		for k := range v.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		counters := make([]*Counter, len(keys))
		for i, k := range keys {
			counters[i] = v.series[k]
		}
		v.mu.Unlock()
		for i, k := range keys {
			fmt.Fprintf(w, "%s%s %d\n", name, labelPairs(v.labels, labelValues(v.labels, k)), counters[i].Value())
		}
	})
	return v
}

// Sample is one labeled observation produced by a snapshot callback.
type Sample struct {
	Labels []string
	Value  float64
}

// CounterSnapshotFunc registers a labeled counter family whose complete
// series set is produced by a callback at scrape time. It serves families
// whose label values are not known at registration (e.g. per-event-name
// kernel aggregates): the callback returns every current series, and the
// renderer sorts them by label values so the output stays deterministic.
// The callback must return monotonically non-decreasing values per label
// tuple.
func (r *Registry) CounterSnapshotFunc(name, help string, labels []string, fn func() []Sample) {
	r.add(name, help, "counter", func(w io.Writer, name string) {
		samples := append([]Sample(nil), fn()...) // sort a copy, not the source's slice
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].Labels, "\x00") < strings.Join(samples[j].Labels, "\x00")
		})
		for _, s := range samples {
			if len(s.Labels) != len(labels) {
				panic("metrics: label arity mismatch in snapshot for " + name)
			}
			fmt.Fprintf(w, "%s%s %s\n", name, labelPairs(labels, s.Labels), formatFloat(s.Value))
		}
	})
}

// DefBuckets are latency histogram bounds in seconds, spanning sub-ms cache
// hits through multi-second simulations.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// Histogram is a fixed-bucket histogram with cumulative bucket counts, a
// sample sum, and a sample count.
type Histogram struct {
	bounds []float64       // upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// render writes the bucket/sum/count series, with extra leading label pairs.
func (h *Histogram) render(w io.Writer, name string, labelNames, labelValues []string) {
	// Fresh slices for the le pair: appending to the caller's (shared)
	// label slices could clobber their backing arrays.
	bucketNames := append(append([]string{}, labelNames...), "le")
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			labelPairs(bucketNames, append(append([]string{}, labelValues...), le)), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs(labelNames, labelValues),
		formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs(labelNames, labelValues), h.count.Load())
}

// HistogramVec is a family of histograms distinguished by label values,
// sharing one bucket layout.
type HistogramVec struct {
	labels  []string
	buckets []float64
	mu      sync.Mutex
	series  map[string]*Histogram
}

// With returns the histogram for a label-value tuple, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic("metrics: label arity mismatch")
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[key]
	if !ok {
		h = newHistogram(v.buckets)
		v.series[key] = h
	}
	return h
}

// HistogramVec registers a labeled histogram family; nil buckets mean
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{labels: labels, buckets: buckets, series: map[string]*Histogram{}}
	r.add(name, help, "histogram", func(w io.Writer, name string) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.series))
		for k := range v.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		hs := make([]*Histogram, len(keys))
		for i, k := range keys {
			hs[i] = v.series[k]
		}
		v.mu.Unlock()
		for i, k := range keys {
			hs[i].render(w, name, v.labels, labelValues(v.labels, k))
		}
	})
	return v
}
