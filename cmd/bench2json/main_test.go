package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	m, ok := parseBenchLine("BenchmarkTable9Row-8   \t     100\t  12345 ns/op\t  456 B/op\t       7 allocs/op")
	if !ok {
		t.Fatal("valid line rejected")
	}
	if m.Name != "BenchmarkTable9Row-8" || m.Iterations != 100 || m.NsPerOp != 12345 {
		t.Errorf("parsed %+v", m)
	}
	if m.Extra["B/op"] != 456 || m.Extra["allocs/op"] != 7 {
		t.Errorf("extra units: %+v", m.Extra)
	}

	if _, ok := parseBenchLine("BenchmarkBare-8"); ok {
		t.Error("line without measurements accepted")
	}
	if _, ok := parseBenchLine("BenchmarkNoNs-8 100 3 MB/s"); ok {
		t.Error("line without ns/op accepted")
	}
	if _, ok := parseBenchLine("PASS"); ok {
		t.Error("non-benchmark line accepted")
	}
}

func writeBaseline(t *testing.T, out output) string {
	t.Helper()
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaseline(t *testing.T) {
	base := output{Suite: "base", Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkKernelSchedule-8", Iterations: 100, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkKernelChurn-8", Iterations: 100, NsPerOp: 500},
	}}
	path := writeBaseline(t, base)

	// Within tolerance (10% slower at 20% tolerance) passes.
	cur := output{Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkKernelSchedule-8", Iterations: 100, NsPerOp: 1100},
		{Package: "p", Name: "BenchmarkKernelChurn-8", Iterations: 100, NsPerOp: 400},
	}}
	if err := compareBaseline(cur, path, 0.20, 0.20); err != nil {
		t.Errorf("10%% drift failed the 20%% gate: %v", err)
	}

	// A >20% regression fails and names the offender.
	cur.Benchmarks[1].NsPerOp = 700
	err := compareBaseline(cur, path, 0.20, 0.20)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkKernelChurn-8") {
		t.Errorf("40%% regression passed the 20%% gate: %v", err)
	}

	// New benchmarks (absent from the baseline) do not fail the gate.
	cur.Benchmarks[1].NsPerOp = 500
	cur.Benchmarks = append(cur.Benchmarks, measurement{Package: "p", Name: "BenchmarkNew-8", NsPerOp: 9e9})
	if err := compareBaseline(cur, path, 0.20, 0.20); err != nil {
		t.Errorf("new benchmark failed the gate: %v", err)
	}

	// Nothing in common is an error (the gate would be vacuous).
	none := output{Benchmarks: []measurement{{Package: "q", Name: "BenchmarkOther-8", NsPerOp: 1}}}
	if err := compareBaseline(none, path, 0.20, 0.20); err == nil {
		t.Error("disjoint benchmark sets passed the gate")
	}
}

// TestCompareBaselineAcrossCPUCounts matches a baseline recorded at
// GOMAXPROCS=1 (no name suffix) against runs at other CPU counts.
func TestCompareBaselineAcrossCPUCounts(t *testing.T) {
	path := writeBaseline(t, output{Suite: "base", Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkKernelSchedule", Iterations: 100, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkWorldTick/entities=10000", Iterations: 100, NsPerOp: 500},
	}})
	for _, suffix := range []string{"", "-2", "-16"} {
		cur := output{Benchmarks: []measurement{
			{Package: "p", Name: "BenchmarkKernelSchedule" + suffix, Iterations: 100, NsPerOp: 1000},
			{Package: "p", Name: "BenchmarkWorldTick/entities=10000" + suffix, Iterations: 100, NsPerOp: 900},
		}}
		err := compareBaseline(cur, path, 0.20, 0.20)
		if err == nil || !strings.Contains(err.Error(), "1 benchmark(s) regressed") {
			t.Errorf("suffix %q: want exactly the WorldTick regression, got %v", suffix, err)
		}
	}
	for name, want := range map[string]string{
		"BenchmarkX-8":       "BenchmarkX",
		"BenchmarkX/n=4-128": "BenchmarkX/n=4",
		"BenchmarkX":         "BenchmarkX",
		"BenchmarkX-":        "BenchmarkX-",
		"BenchmarkX/a-b":     "BenchmarkX/a-b",
	} {
		if got := stripProcs(name); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCompareBaselineAllocsGate(t *testing.T) {
	allocs := func(n float64) map[string]float64 { return map[string]float64{"allocs/op": n} }
	base := output{Suite: "base", Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkZeroAlloc-8", Iterations: 100, NsPerOp: 1000, Extra: allocs(7)},
		{Package: "p", Name: "BenchmarkBusy-8", Iterations: 100, NsPerOp: 1000, Extra: allocs(4000)},
		{Package: "p", Name: "BenchmarkNoMem-8", Iterations: 100, NsPerOp: 1000},
	}}
	path := writeBaseline(t, base)

	// Within the absolute slack: 7 -> 9 allocs is > 20% but <= +2, passes.
	cur := output{Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkZeroAlloc-8", Iterations: 100, NsPerOp: 1000, Extra: allocs(9)},
	}}
	if err := compareBaseline(cur, path, 0.20, 0.20); err != nil {
		t.Errorf("+2 allocs on a near-zero baseline failed the gate: %v", err)
	}

	// Past both the fractional gate and the slack: 7 -> 10 fails.
	cur.Benchmarks[0].Extra = allocs(10)
	err := compareBaseline(cur, path, 0.20, 0.20)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("7 -> 10 allocs passed the 20%%+2 gate: %v", err)
	}

	// Large baseline: the fractional gate governs. 4000 -> 4100 passes,
	// 4000 -> 5000 fails.
	cur = output{Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkBusy-8", Iterations: 100, NsPerOp: 1000, Extra: allocs(4100)},
	}}
	if err := compareBaseline(cur, path, 0.20, 0.20); err != nil {
		t.Errorf("2.5%% allocs drift failed the 20%% gate: %v", err)
	}
	cur.Benchmarks[0].Extra = allocs(5000)
	if err := compareBaseline(cur, path, 0.20, 0.20); err == nil {
		t.Error("25% allocs regression passed the 20% gate")
	}

	// A benchmark without allocs/op on either side is ns/op-gated only.
	cur = output{Benchmarks: []measurement{
		{Package: "p", Name: "BenchmarkNoMem-8", Iterations: 100, NsPerOp: 1000, Extra: allocs(1e9)},
		{Package: "p", Name: "BenchmarkZeroAlloc-8", Iterations: 100, NsPerOp: 1000},
	}}
	if err := compareBaseline(cur, path, 0.20, 0.20); err != nil {
		t.Errorf("benchmarks missing allocs/op on one side were allocs-gated: %v", err)
	}
}
