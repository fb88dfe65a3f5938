package main

import (
	"bytes"
	"runtime"
	"slices"
	"time"

	"atlarge"
)

// iteration runs one operation of a batch workload on the input drawn from
// seed and returns the digest of its canonical output bytes. tr is nil on
// untraced iterations.
type iteration func(tr *tracer, seed int64) (string, error)

// inputSeed is the seed of a run's k-th timed input: the run's own seed
// first, then seeds derived from it. The simulators' cost depends strongly
// on the drawn input, so a run spreads its iterations over many inputs and
// its medians describe the input distribution, not one draw.
func inputSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return atlarge.DeriveSeed(seed, "e2e-input", k)
}

// record is one timed iteration: its cost and output digest.
type record struct {
	cost
	Digest string
}

// setups is how many times a run sets its workload up; setup_s is the
// median of their times.
const setups = 3

// fixture builds what a batch workload's iterations need and returns the
// function that releases it.
type fixture func() (release func(), err error)

// runBatch measures a batch workload. One set-up is a fixture build plus the
// first iteration on the run's seed: the time until the first result is out.
// The run sets up several times, releasing each fixture but the last, and
// every set-up must give the same bytes. Then untraced iterations on inputs
// 0, 1, 2, ... on the last fixture fill the window, or half of it when
// tracing, and traced iterations on the same sequence the other half. Input
// 0 must reproduce the set-up's bytes. build may be nil. workers is the pool
// width the layer shares are taken of. It returns the untraced iterations,
// the k-th on input k.
func runBatch(c *config, r *result, workers int, build fixture, iter iteration) ([]record, error) {
	release := func() {}
	defer func() { release() }()
	var first string
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		release()
		release = func() {}
		start := time.Now()
		if build != nil {
			rel, err := build()
			if err != nil {
				return nil, err
			}
			release = rel
		}
		r.Attempted++
		d, err := iter(nil, c.seed)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			first = d
		} else if d != first {
			r.fail("set-up %d: output digest %.12s differs from the first set-up's %.12s", i, d, first)
		}
	}
	r.set("setup_s", median(times), "s", len(times))
	r.Digest = first

	window := c.window
	if c.trace {
		window /= 2
	}
	var digests []string
	run := func(tr *tracer, k int) error {
		r.Attempted++
		d, err := iter(tr, inputSeed(c.seed, k))
		if err == nil && k == 0 && d != first {
			r.fail("output digest %.12s differs from the set-up's %.12s on the same input", d, first)
		}
		if tr == nil {
			digests = append(digests, d)
		}
		return err
	}
	costs, err := timeIterations(window, func(k int) error { return run(nil, k) })
	if err != nil {
		return nil, err
	}
	costMetrics(r, costs)
	records := make([]record, len(costs))
	for k, ct := range costs {
		records[k] = record{ct, digests[k]}
	}
	if !c.trace {
		return records, nil
	}
	tr := newTracer()
	tr.install()
	traced, err := timeIterations(window, func(k int) error { return run(tr, k) })
	tr.uninstall()
	if err != nil {
		return nil, err
	}
	// Trace overhead compares each traced iteration with the untraced one
	// on the same input.
	var wall time.Duration
	var ratios []float64
	for k, ct := range traced {
		wall += ct.Wall
		if k < len(costs) {
			ratios = append(ratios, ct.Wall.Seconds()/costs[k].Wall.Seconds())
		}
	}
	tr.analyse(r, len(traced), wall.Seconds()/float64(len(traced))*float64(workers))
	r.set("bench.trace_overhead_ratio", median(ratios)-1, "ratio", len(ratios))
	return records, nil
}

// costMetrics records the end-to-end metrics of a batch workload's timed
// iterations, each the median over the iterations: wall time, process CPU,
// heap allocation, and the peak live heap during the iteration. It also
// records the process CPU as a share of the machine over the iterations.
func costMetrics(r *result, costs []cost) {
	n := len(costs)
	pick := func(f func(cost) float64) float64 {
		xs := make([]float64, n)
		for i, c := range costs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	r.set("wall_s", pick(func(c cost) float64 { return c.Wall.Seconds() }), "s", n)
	r.set("cpu_s", pick(func(c cost) float64 { return c.CPU.Seconds() }), "s", n)
	r.set("alloc_mib", pick(func(c cost) float64 { return float64(c.AllocBytes) / (1 << 20) }), "MiB", n)
	r.set("allocs", pick(func(c cost) float64 { return float64(c.Allocs) }), "count", n)
	r.set("peak_heap_mib", pick(func(c cost) float64 { return c.PeakMiB }), "MiB", n)
	var wall, cpu time.Duration
	for _, c := range costs {
		wall += c.Wall
		cpu += c.CPU
	}
	r.set("bench.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())), "ratio", n)
}

// runnerIteration is one Runner invocation plus rendering of its run
// document, the path of `atlarge run --format json`.
func runnerIteration(ids []string, parallelism, replicas int) iteration {
	return func(tr *tracer, seed int64) (string, error) {
		runner := &atlarge.Runner{Parallelism: parallelism, Replicas: replicas, SpanObserver: tr.spanObserver()}
		results, err := runner.Run(ids, seed)
		if err != nil {
			return "", err
		}
		if replicas > 1 {
			// The runner aggregated inside Run; the benchmark re-times the
			// same call on the returned replicas to attribute it.
			_ = tr.timed("atlarge.aggregate", func() error {
				for _, res := range results {
					atlarge.AggregateReports(res.Reports)
				}
				return nil
			})
		}
		var buf bytes.Buffer
		if err := tr.timed("atlarge.render", func() error {
			return atlarge.NewRunDocument(seed, results).WriteJSON(&buf)
		}); err != nil {
			return "", err
		}
		return digest(buf.Bytes()), nil
	}
}

// catalogIDs are every registered experiment except tab9, which has its own
// workload.
func catalogIDs() []string {
	return slices.DeleteFunc(slices.Clone(experimentIDs), func(id string) bool { return id == "tab9" })
}

// tab9 runs under Parallelism 1, but the experiment itself simulates its
// rows and policies on GOMAXPROCS goroutines, so its layer shares are of
// the whole machine.
func runTab9(c *config, r *result) error {
	_, err := runBatch(c, r, runtime.NumCPU(), nil, runnerIteration([]string{"tab9"}, 1, 1))
	return err
}

func refTab9(seed int64, _ time.Duration) (string, error) {
	return runnerIteration([]string{"tab9"}, 1, 1)(nil, seed)
}

func runCatalog(c *config, r *result) error {
	replicas := 5
	if c.small {
		replicas = 1
	}
	_, err := runBatch(c, r, 2, nil, runnerIteration(catalogIDs(), 2, replicas))
	return err
}

func refCatalog(seed int64, _ time.Duration) (string, error) {
	return runnerIteration(catalogIDs(), 2, 5)(nil, seed)
}
