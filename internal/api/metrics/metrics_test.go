package metrics

import (
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestWriteFormat checks the exposition basics: HELP/TYPE headers in
// registration order, counter and gauge samples, label rendering.
func TestWriteFormat(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "Jobs ever submitted.")
	c.Add(3)
	r.GaugeFunc("queue_depth", "Pending tasks.", func() float64 { return 7 })
	v := r.CounterVec("requests_total", "Requests.", "endpoint", "code")
	v.With("/v1/run", "200").Add(2)
	v.With("/v1/jobs", "429").Inc()

	out := render(t, r)
	for _, want := range []string{
		"# HELP jobs_total Jobs ever submitted.\n# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 7\n",
		`requests_total{endpoint="/v1/jobs",code="429"} 1`,
		`requests_total{endpoint="/v1/run",code="200"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render in registration order.
	if strings.Index(out, "jobs_total") > strings.Index(out, "queue_depth") {
		t.Error("families out of registration order")
	}
	// Vec series render sorted by label values (/v1/jobs before /v1/run).
	if strings.Index(out, `endpoint="/v1/jobs"`) > strings.Index(out, `endpoint="/v1/run"`) {
		t.Error("vec series out of label order")
	}
}

// TestHistogram checks cumulative buckets, the implicit +Inf bucket, and
// sum/count lines.
func TestHistogram(t *testing.T) {
	r := New()
	h := r.HistogramVec("latency_seconds", "Latency.", []float64{0.25, 1}, "endpoint").With("/x")
	// Exact binary fractions, so the rendered sum is exact too.
	for _, v := range []float64{0.125, 0.25, 0.5, 2} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{endpoint="/x",le="0.25"} 2`, // 0.125 and the boundary 0.25
		`latency_seconds_bucket{endpoint="/x",le="1"} 3`,
		`latency_seconds_bucket{endpoint="/x",le="+Inf"} 4`,
		`latency_seconds_sum{endpoint="/x"} 2.875`,
		`latency_seconds_count{endpoint="/x"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramUnlabeled: a family without labels renders each bucket with
// its bound as the only label.
func TestHistogramUnlabeled(t *testing.T) {
	r := New()
	h := r.HistogramVec("latency_seconds", "Latency.", []float64{0.25, 1}).With()
	for _, v := range []float64{0.125, 0.5, 2} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.25"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 2.625\n",
		"latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramVec: labeled histograms share buckets but not samples, and
// the le pair renders after the series labels.
func TestHistogramVec(t *testing.T) {
	r := New()
	v := r.HistogramVec("req_seconds", "Request latency.", []float64{1}, "endpoint")
	v.With("/a").Observe(0.5)
	v.With("/b").Observe(2)
	out := render(t, r)
	for _, want := range []string{
		`req_seconds_bucket{endpoint="/a",le="1"} 1`,
		`req_seconds_bucket{endpoint="/a",le="+Inf"} 1`,
		`req_seconds_bucket{endpoint="/b",le="1"} 0`,
		`req_seconds_bucket{endpoint="/b",le="+Inf"} 1`,
		`req_seconds_count{endpoint="/a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values are
// escaped per the format.
func TestLabelEscaping(t *testing.T) {
	r := New()
	v := r.CounterVec("odd_total", "Odd labels.", "name")
	v.With(`a"b\c` + "\n").Inc()
	out := render(t, r)
	if !strings.Contains(out, `odd_total{name="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", out)
	}
}

// TestDuplicateFamilyPanics: registering the same family twice is a bug.
func TestDuplicateFamilyPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("x_total", "X again.")
}

// TestGaugeVecCallbacks: per-label callbacks are read at scrape time.
func TestGaugeVecCallbacks(t *testing.T) {
	r := New()
	v := r.GaugeVec("jobs", "Jobs by state.", "state")
	n := 0.0
	v.Set(func() float64 { return n }, "running")
	v.Set(func() float64 { return 2 }, "done")
	n = 5
	out := render(t, r)
	for _, want := range []string{`jobs{state="running"} 5`, `jobs{state="done"} 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotFunc: snapshot families re-enumerate their series at scrape
// time, render them sorted by label values, and enforce label arity.
func TestSnapshotFunc(t *testing.T) {
	r := New()
	samples := []Sample{
		{Labels: []string{"tick"}, Value: 3},
		{Labels: []string{"arrive"}, Value: 7},
	}
	r.CounterSnapshotFunc("events_total", "Events by name.", []string{"event"},
		func() []Sample { return samples })

	out := render(t, r)
	for _, want := range []string{
		"# TYPE events_total counter",
		`events_total{event="arrive"} 7`,
		`events_total{event="tick"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, `event="arrive"`) > strings.Index(out, `events_total{event="tick"}`) {
		t.Error("snapshot series not sorted by label value")
	}

	// A new series appears on the next scrape without re-registration.
	samples = append(samples, Sample{Labels: []string{"depart"}, Value: 1})
	if !strings.Contains(render(t, r), `events_total{event="depart"} 1`) {
		t.Error("new series missing after source grew")
	}

	defer func() {
		if recover() == nil {
			t.Error("label arity mismatch did not panic")
		}
	}()
	r.CounterSnapshotFunc("bad_total", "Bad arity.", []string{"a", "b"},
		func() []Sample { return []Sample{{Labels: []string{"only-one"}, Value: 1}} })
	render(t, r)
}
