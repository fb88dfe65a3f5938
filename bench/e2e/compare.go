package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of -compare for one (workload, metric).
const (
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares the per-run values of metric d on two sides, a the base
// and b the candidate. A median that moved by more than the bound, as a
// share of a's median, is worse or better; a smaller move is unchanged.
// When either side's quartile spread exceeds the bound, that reading holds
// only if every b run lies on one side of every a run; otherwise the pair is
// unresolved.
func judge(d metricDef, a, b []float64) string {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	change := sign * (medB - medA)
	if medA != 0 {
		change /= math.Abs(medA)
	}
	separated := sign*slices.Min(b) > sign*slices.Max(a) || sign*slices.Max(b) < sign*slices.Min(a)
	if (spread(a) > d.Bound || spread(b) > d.Bound) && !separated {
		return verdictUnresolved
	}
	switch {
	case change > d.Bound:
		return verdictWorse
	case change < -d.Bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// loadResults reads a file of result lines (as -out appends them) and
// groups the untraced ones by workload.
func loadResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// runCompare prints, for every workload in both files and every end-to-end
// metric, both sides' medians and quartiles over their runs and the verdict
// against the metric's bound.
func runCompare(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-14s %5s  %-32s %-32s %7s  %s\n", "workload", "metric", "bound", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "change", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			medA := median(va)
			change := (median(vb) - medA) / math.Abs(medA)
			fmt.Fprintf(w, "%-10s %-14s %5.2f  %-32s %-32s %+6.1f%%  %s\n",
				wl.Name, d.Name, d.Bound, describe(va), describe(vb), 100*change, judge(d, va, vb))
		}
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
