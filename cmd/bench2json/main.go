// Command bench2json converts `go test -bench` output on stdin into a JSON
// benchmark record on stdout, so CI can archive benchmark smoke runs as
// BENCH_*.json artifacts and the performance trajectory can be tracked
// across commits.
//
// With -compare, it instead gates a run against a committed baseline record:
// every benchmark present in both is checked, and any whose ns/op regressed
// by more than -tolerance — or whose allocs/op regressed by more than
// -allocs-tolerance beyond a small absolute slack — fails the command. This
// is the `make bench-compare` guard that keeps kernel hot-path optimizations
// (and especially zero-alloc wins) from silently eroding.
//
// Usage:
//
//	go test -bench=. -benchtime=1x ./... | bench2json -suite smoke > BENCH_smoke.json
//	go test -bench=BenchmarkKernel -benchmem ./internal/sim | bench2json -compare BENCH_base.json -tolerance 0.20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// measurement is one parsed benchmark line.
type measurement struct {
	// Package is the pkg: header in effect when the line appeared.
	Package string `json:"package,omitempty"`
	// Name is the benchmark name including the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Iterations is the measured iteration count.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op value.
	NsPerOp float64 `json:"ns_per_op"`
	// Extra holds any further unit pairs (B/op, allocs/op, MB/s, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// output is the archived record.
type output struct {
	Suite      string        `json:"suite"`
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []measurement `json:"benchmarks"`
}

func main() {
	suite := flag.String("suite", "bench", "suite label stored in the record")
	compare := flag.String("compare", "", "baseline BENCH_*.json to gate against instead of emitting a record")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression vs the baseline")
	allocsTol := flag.Float64("allocs-tolerance", 0.20, "allowed fractional allocs/op regression vs the baseline")
	flag.Parse()
	if err := run(*suite, *compare, *tolerance, *allocsTol); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

func run(suite, compare string, tolerance, allocsTol float64) error {
	out := output{Suite: suite, Benchmarks: []measurement{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if m, ok := parseBenchLine(line); ok {
				m.Package = pkg
				out.Benchmarks = append(out.Benchmarks, m)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if compare != "" {
		return compareBaseline(out, compare, tolerance, allocsTol)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// allocsSlack is the absolute allocs/op headroom on top of the fractional
// allocs gate: near-zero baselines (the whole point of the zero-alloc kernel)
// would otherwise fail on a single incidental allocation, so a regression
// must exceed both baseline × (1 + tolerance) and baseline + allocsSlack.
const allocsSlack = 2

// stripProcs drops the -N GOMAXPROCS suffix the testing package appends to
// benchmark names when GOMAXPROCS > 1, so runs on hosts with different CPU
// counts match by name. Sub-benchmark names must therefore not end in
// "-digits" themselves (name them key=value instead).
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// compareBaseline gates the parsed run against a committed baseline: any
// benchmark present in both (matched by package and name without the
// GOMAXPROCS suffix) whose ns/op exceeds baseline × (1 + tolerance),
// or whose allocs/op exceeds both baseline × (1 + allocsTol) and baseline +
// allocsSlack, is a regression and fails the call. The allocs gate only
// applies where both records carry allocs/op (runs made with -benchmem).
// Benchmarks only on one side are reported but do not fail, so adding or
// retiring a benchmark does not require touching the baseline in the same
// commit.
func compareBaseline(cur output, path string, tolerance, allocsTol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base output
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	key := func(m measurement) string { return m.Package + " " + stripProcs(m.Name) }
	baseline := make(map[string]measurement, len(base.Benchmarks))
	for _, m := range base.Benchmarks {
		baseline[key(m)] = m
	}
	var regressions []string
	compared := 0
	for _, m := range cur.Benchmarks {
		b, ok := baseline[key(m)]
		if !ok {
			fmt.Printf("new       %-40s %12.0f ns/op (not in baseline)\n", m.Name, m.NsPerOp)
			continue
		}
		compared++
		delete(baseline, key(m))
		ratio := m.NsPerOp / b.NsPerOp
		verdict := "ok"
		if m.NsPerOp > b.NsPerOp*(1+tolerance) {
			verdict = "REGRESSED"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
				m.Name, b.NsPerOp, m.NsPerOp, (ratio-1)*100, tolerance*100))
		}
		allocs := " "
		if curA, okC := m.Extra["allocs/op"]; okC {
			if baseA, okB := b.Extra["allocs/op"]; okB {
				allocs = fmt.Sprintf("%.0f vs %.0f allocs/op", curA, baseA)
				if curA > baseA*(1+allocsTol) && curA > baseA+allocsSlack {
					verdict = "REGRESSED"
					regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f allocs/op (tolerance %.0f%% + %d)",
						m.Name, baseA, curA, allocsTol*100, allocsSlack))
				}
			}
		}
		fmt.Printf("%-9s %-40s %12.0f ns/op vs baseline %12.0f (%+.1f%%)  %s\n",
			verdict, m.Name, m.NsPerOp, b.NsPerOp, (ratio-1)*100, allocs)
	}
	for k := range baseline {
		fmt.Printf("missing   %s (in baseline, not in this run)\n", k)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks in common with baseline %s", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed >%.0f%% vs %s:\n  %s",
			len(regressions), tolerance*100, path, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("bench-compare: OK (%d benchmark(s) within %.0f%% of %s)\n", compared, tolerance*100, path)
	return nil
}

// parseBenchLine parses "BenchmarkName-8  100  12345 ns/op  456 B/op ...".
func parseBenchLine(line string) (measurement, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return measurement{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return measurement{}, false
	}
	m := measurement{Name: fields[0], Iterations: iters}
	// The remainder alternates value/unit pairs.
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return measurement{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			m.NsPerOp = v
			sawNs = true
			continue
		}
		if m.Extra == nil {
			m.Extra = map[string]float64{}
		}
		m.Extra[unit] = v
	}
	return m, sawNs
}
