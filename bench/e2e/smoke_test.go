package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"
)

// TestSmoke runs every workload but tab9 once, traced, at reduced sizes:
// the harness builds, its checks pass on correct output, and it reports
// every metric BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulators")
	}
	for _, w := range workloads {
		if w.Name == "tab9" {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			window := time.Millisecond
			if w.Name == "serve" {
				window = time.Second // room for a few jobs and reads
			}
			c := &config{seed: 1000, window: window, trace: true, small: true} // an unpinned seed
			r := runWorkload(c, w)
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			for _, d := range endToEnd {
				if m, ok := r.Metrics[d.Name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want > 0", d.Name, m)
				}
			}
			for _, d := range perLayer {
				if _, ok := r.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if r.Digest == "" {
				t.Error("no output digest")
			}
			raw, err := json.Marshal(summarize([]*result{r}, true))
			if err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Errorf("result line keys %v, want %v", keys, want)
			}
			var metrics map[string]map[string]json.RawMessage
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			for name, m := range metrics {
				keys = keys[:0]
				for k := range m {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if want := []string{"unit", "value"}; !slices.Equal(keys, want) {
					t.Errorf("result line metric %s has keys %v, want %v", name, keys, want)
				}
			}
		})
	}
}

// TestBatchFlagsNondeterminism checks that a set-up or a timed iteration
// whose output bytes differ from the first set-up's on the same input is
// counted as a failed operation, and that every fixture is released.
func TestBatchFlagsNondeterminism(t *testing.T) {
	for _, bad := range []int{2, setups + 1} { // the second set-up; the first timed iteration
		calls, built, released := 0, 0, 0
		build := func() (func(), error) {
			built++
			return func() { released++ }, nil
		}
		iter := func(_ *tracer, seed int64) (string, error) {
			calls++
			time.Sleep(time.Millisecond)
			if calls == bad {
				return "changed", nil
			}
			return strconv.FormatInt(seed, 10), nil
		}
		r := &result{Metrics: map[string]metricValue{}}
		records, err := runBatch(&config{seed: 5, window: 20 * time.Millisecond}, r, 1, build, iter)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 1 || len(r.Problems) != 1 {
			t.Errorf("call %d changed: failed=%d problems=%v, want one failure", bad, r.Failed, r.Problems)
		}
		if built != setups || released != setups {
			t.Errorf("built %d fixtures and released %d, want %d each", built, released, setups)
		}
		if m := r.Metrics["setup_s"]; m.N != setups || m.Value <= 0 {
			t.Errorf("setup_s %+v, want the median of %d set-ups", m, setups)
		}
		if len(records) < 2 || records[1].Digest != strconv.FormatInt(inputSeed(5, 1), 10) {
			t.Errorf("records %+v: the k-th iteration must run on input k", records)
		}
	}
}

// TestPinnedMismatch checks that a digest differing from the pinned one
// fails the run.
func TestPinnedMismatch(t *testing.T) {
	w := workloadDef{Name: "probe"}
	c := &config{seed: 3, window: time.Second}
	pins[w.Name] = map[string]string{"3": "want"}
	defer delete(pins, w.Name)
	r := &result{Metrics: map[string]metricValue{}, Digest: "got"}
	checkPinned(r, w, c)
	if !r.Pinned || len(r.Problems) != 1 {
		t.Errorf("pinned=%v problems=%v, want a pinned mismatch", r.Pinned, r.Problems)
	}
	r = &result{Metrics: map[string]metricValue{}, Digest: "want"}
	checkPinned(r, w, c)
	if len(r.Problems) != 0 {
		t.Errorf("matching digest reported %v", r.Problems)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's declarations of
// workloads and metrics identical.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %d: %+v, harness has %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
