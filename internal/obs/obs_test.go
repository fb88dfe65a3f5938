package obs_test

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"atlarge"
	"atlarge/internal/exec"
	"atlarge/internal/obs"
	"atlarge/internal/scenario"
	"atlarge/internal/sim"
)

const specJSON = `{
	"version": 1,
	"name": "trace-test",
	"workload": {"class": "scientific", "jobs": 12},
	"cluster": {"kind": "CL", "machines": 4, "cores": 4},
	"replicas": 2,
	"seed": 42,
	"sweep": {"policy": ["sjf", "fcfs"]}
}`

// runTracedSweep runs the test sweep at the given parallelism with a fresh
// collector and span log, returning the assembled trace.
func runTracedSweep(t *testing.T, parallel int, wall bool) *obs.Trace {
	t.Helper()
	spec, err := scenario.Parse(strings.NewReader(specJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}

	col := &obs.Collector{}
	restore := col.Install()
	defer restore()
	spans := &obs.SpanLog{}

	_, err = scenario.Run(context.Background(), spec, cells, scenario.Options{
		Parallelism:  parallel,
		SpanObserver: spans.Observe,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	ids := make([]string, len(cells))
	for i := range cells {
		ids[i] = cells[i].ID()
	}
	return &obs.Trace{
		Target:   spec.Name,
		Seed:     spec.Seed,
		Sections: col.Sections(spec.Seed, ids, spec.Replicas),
		Spans:    spans.Sorted(),
		Wall:     wall,
	}
}

func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	t1 := runTracedSweep(t, 1, false)
	t8 := runTracedSweep(t, 8, false)

	if len(t1.Sections) == 0 {
		t.Fatal("no kernels captured")
	}
	if len(t1.Spans) != 4 { // 2 cells × 2 replicas
		t.Fatalf("got %d spans, want 4", len(t1.Spans))
	}

	var nd1, nd8 bytes.Buffer
	if err := t1.WriteNDJSON(&nd1); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if err := t8.WriteNDJSON(&nd8); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if !bytes.Equal(nd1.Bytes(), nd8.Bytes()) {
		t.Error("NDJSON differs between --parallel 1 and 8")
	}

	var ch1, ch8 bytes.Buffer
	if err := t1.WriteChrome(&ch1); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := t8.WriteChrome(&ch8); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(ch1.Bytes(), ch8.Bytes()) {
		t.Error("Chrome trace differs between --parallel 1 and 8")
	}
	if err := obs.ValidateChrome(bytes.NewReader(ch1.Bytes())); err != nil {
		t.Errorf("generated Chrome trace fails validation: %v", err)
	}
	// Every section must be attributed — the sched domain runs exactly one
	// kernel per (cell, replica) task under the derived sim seed.
	for _, sec := range t1.Sections {
		if sec.Index < 0 {
			t.Errorf("unattributed kernel seed=%d", sec.Seed)
		}
	}
}

func TestWallFieldsOptIn(t *testing.T) {
	tr := runTracedSweep(t, 2, false)
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte("wall_ns")) || bytes.Contains(buf.Bytes(), []byte("worker")) {
		t.Error("wall fields leaked into a virtual-time-only trace")
	}

	trw := runTracedSweep(t, 2, true)
	buf.Reset()
	if err := trw.WriteNDJSON(&buf); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("end_ns")) {
		t.Error("wall trace missing span timing fields")
	}
	var chrome bytes.Buffer
	if err := trw.WriteChrome(&chrome); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := obs.ValidateChrome(bytes.NewReader(chrome.Bytes())); err != nil {
		t.Errorf("wall Chrome trace fails validation: %v", err)
	}
	if !bytes.Contains(chrome.Bytes(), []byte("worker ")) {
		t.Error("wall Chrome trace has no worker tracks")
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [}`,
		"empty":           `{"traceEvents": []}`,
		"no events field": `{"other": 1}`,
		"missing name":    `{"traceEvents": [{"ph": "X", "ts": 1, "pid": 1, "tid": 1}]}`,
		"missing ph":      `{"traceEvents": [{"name": "e", "ts": 1, "pid": 1, "tid": 1}]}`,
		"missing ts":      `{"traceEvents": [{"name": "e", "ph": "X", "pid": 1, "tid": 1}]}`,
		"non-monotone ts": `{"traceEvents": [{"name": "a", "ph": "X", "ts": 5, "pid": 1, "tid": 1}, {"name": "b", "ph": "X", "ts": 3, "pid": 1, "tid": 1}]}`,
		"only metadata":   `{"traceEvents": [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0}]}`,
	}
	for name, doc := range cases {
		if err := obs.ValidateChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	// Distinct tracks may interleave timestamps freely.
	ok := `{"traceEvents": [
		{"name": "a", "ph": "X", "ts": 5, "pid": 1, "tid": 1},
		{"name": "b", "ph": "X", "ts": 3, "pid": 1, "tid": 2}]}`
	if err := obs.ValidateChrome(strings.NewReader(ok)); err != nil {
		t.Errorf("cross-track interleaving rejected: %v", err)
	}
}

func TestProfileTables(t *testing.T) {
	tr := runTracedSweep(t, 2, false)
	rows := obs.MergeProfiles(tr.Sections)
	if len(rows) == 0 {
		t.Fatal("no profile rows from a traced sweep")
	}
	var fired uint64
	for _, r := range rows {
		fired += r.Fired
	}
	if fired == 0 {
		t.Fatal("merged profile shows no fired events")
	}
	table := obs.ProfileTable(rows, true)
	if len(table.Rows) != len(rows) || len(table.Columns) != 8 {
		t.Fatalf("profile table shape: %d rows × %d cols", len(table.Rows), len(table.Columns))
	}
	streams := obs.MergeStreams(tr.Sections)
	if len(streams) == 0 {
		t.Fatal("no RNG stream rows — sched simulators draw from named streams")
	}
	st := obs.StreamTable(streams)
	if len(st.Rows) != len(streams) {
		t.Fatalf("stream table shape: %d rows, want %d", len(st.Rows), len(streams))
	}
}

func TestSectionsUnattributedKernels(t *testing.T) {
	col := &obs.Collector{}
	restore := col.Install()
	defer restore()

	known := atlarge.DeriveSeed(1, "known", 0)
	for _, seed := range []int64{7, 7, known} {
		k := sim.NewKernel(seed)
		k.At(0, "e", func(*sim.Kernel) {})
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	secs := col.Sections(1, []string{"known"}, 1)
	if len(secs) != 3 {
		t.Fatalf("got %d sections, want 3", len(secs))
	}
	if secs[0].Task != "known#0" || secs[0].Index != 0 {
		t.Fatalf("attributed section not first: %+v", secs[0])
	}
	if secs[1].Task != "kernel-7" || secs[1].Seq != 0 || secs[2].Seq != 1 {
		t.Fatalf("unattributed sections not in (seed, seq) order: %+v, %+v", secs[1], secs[2])
	}
}

func TestNoGoroutineLeakOnCancelledTracedRun(t *testing.T) {
	before := runtime.NumGoroutine()

	col := &obs.Collector{}
	restore := col.Install()
	spans := &obs.SpanLog{}

	ctx, cancel := context.WithCancel(context.Background())
	var p exec.Plan[int]
	for i := 0; i < 32; i++ {
		i := i
		p.Add("t"+strconv.Itoa(i), func(ctx context.Context) (int, error) {
			k := sim.NewKernel(int64(i))
			k.At(0, "tick", func(k *sim.Kernel) { k.After(0.1, "tick", func(*sim.Kernel) {}) })
			_ = k.Run()
			if i == 0 {
				cancel() // cancel mid-plan while tasks are in flight
			}
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
			return i, nil
		})
	}
	for ev := range exec.Stream(ctx, &p, exec.Options[int]{Workers: 4, Spans: true}) {
		if ev.Span != nil {
			spans.Observe(ev.Index, ev.ID, *ev.Span, ev.Err)
		}
	}
	cancel()
	restore()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after cancelled traced run: %d before, %d after", before, after)
	}
	if len(col.Sections(0, nil, 1)) == 0 {
		t.Fatal("collector captured no kernels before cancellation")
	}
}
