package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atlarge/internal/dist"
	"atlarge/internal/exec"
	"atlarge/internal/scenario"
)

// sweepSpec is the 32-task sweep of the dist, restart and resume smoke
// targets: 700 scientific jobs under 4 static policies × 4 loads × 2
// replicas.
const sweepSpec = `{"version": 1, "name": "dist-smoke",
	"workload": {"class": "scientific", "jobs": 700},
	"cluster": {"kind": "CL", "machines": 16, "cores": 8},
	"replicas": 2, "seed": 42,
	"sweep": {"policy": ["sjf", "fcfs", "easy-bf", "random"], "load": [0.5, 0.7, 0.9, 1.1]}}`

// sweepSpec returns the sweep to run: the smoke test's has 70 jobs.
func (c *config) sweepSpec() string {
	if c.small {
		return strings.Replace(sweepSpec, `"jobs": 700`, `"jobs": 70`, 1)
	}
	return sweepSpec
}

// parseSweep parses, validates and expands a spec: what `atlarge scenario
// sweep` does before running.
func parseSweep(raw string) (*scenario.Spec, []scenario.Scenario, error) {
	spec, err := scenario.Parse(strings.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		return nil, nil, err
	}
	return spec, cells, nil
}

// sweepIteration runs the sweep and renders its report as JSON. distribute,
// when non-nil, installs the distributed executor into the options first.
func sweepIteration(spec *scenario.Spec, cells []scenario.Scenario, distribute func(*scenario.Options) error) iteration {
	return func(tr *tracer, seed int64) (string, error) {
		opt := scenario.Options{Parallelism: 2, Seed: &seed, SpanObserver: tr.spanObserver()}
		if distribute != nil {
			if err := distribute(&opt); err != nil {
				return "", err
			}
		}
		var rep *scenario.Report
		if err := tr.timed("scenario.run", func() error {
			var err error
			rep, err = scenario.Run(context.Background(), spec, cells, opt)
			return err
		}); err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := tr.timed("scenario.render", func() error { return rep.WriteJSON(&buf) }); err != nil {
			return "", err
		}
		return digest(buf.Bytes()), nil
	}
}

func runSweep(c *config, r *result) error {
	var spec *scenario.Spec
	var cells []scenario.Scenario
	var iter iteration
	var parse []float64
	build := func() (func(), error) {
		start := time.Now()
		var err error
		spec, cells, err = parseSweep(c.sweepSpec())
		parse = append(parse, time.Since(start).Seconds())
		iter = sweepIteration(spec, cells, nil)
		return func() {}, err
	}
	_, err := runBatch(c, r, 2, build, func(tr *tracer, seed int64) (string, error) { return iter(tr, seed) })
	r.set("scenario.parse_expand_s", median(parse), "s", len(parse))
	return err
}

func refSweep(seed int64, _ time.Duration) (string, error) {
	spec, cells, err := parseSweep(sweepSpec)
	if err != nil {
		return "", err
	}
	return sweepIteration(spec, cells, nil)(nil, seed)
}

// distFleet is two in-process dist workers of one task slot each, served
// over loopback HTTP, and the dispatcher's dialed clients. current is the
// tracer of the iteration in progress, read by the worker-side middleware.
type distFleet struct {
	servers []*http.Server
	wg      sync.WaitGroup
	clients []*dist.Client
	stats   dist.Stats
	current atomic.Pointer[tracer]
}

func bootFleet(ctx context.Context) (*distFleet, error) {
	f := &distFleet{}
	build := scenario.WorkerBuilder()
	wk := &dist.Worker{
		Build: map[string]dist.Builder{scenario.DistJobKind: func(j dist.Job) (*exec.Plan[json.RawMessage], error) {
			plan, err := build(j)
			if err != nil {
				return nil, err
			}
			if t := f.current.Load(); t != nil {
				t.add("dist.claims", 1)
				timeTasks(t, plan)
			}
			return plan, nil
		}},
		Parallelism: 1,
	}
	handler := &timingHandler{next: wk.Handler(), tr: f.current.Load, timer: "dist.worker", counter: "dist.resp_kib"}
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv := &http.Server{Handler: handler}
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		addrs[i] = ln.Addr().String()
	}
	clients, err := dist.DialAll(ctx, addrs)
	if err != nil {
		f.close()
		return nil, err
	}
	f.clients = clients
	return f, nil
}

// timeTasks wraps every task of a worker-side plan to add its run time to
// the tracer.
func timeTasks(t *tracer, plan *exec.Plan[json.RawMessage]) {
	for i := range plan.Tasks {
		run := plan.Tasks[i].Run
		plan.Tasks[i].Run = func(ctx context.Context) (json.RawMessage, error) {
			start := time.Now()
			res, err := run(ctx)
			t.addTime("exec.run", time.Since(start))
			t.add("exec.tasks", 1)
			return res, err
		}
	}
}

// close stops the workers and waits until their serving goroutines exit.
func (f *distFleet) close() {
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func runSweepDist(c *config, r *result) error {
	var spec *scenario.Spec
	var cells []scenario.Scenario
	var fleet *distFleet
	var iter iteration
	build := func() (func(), error) {
		f, err := bootFleet(context.Background())
		if err != nil {
			return nil, err
		}
		if spec, cells, err = parseSweep(c.sweepSpec()); err != nil {
			f.close()
			return nil, err
		}
		fleet = f
		iter = sweepIteration(spec, cells, func(opt *scenario.Options) error {
			return scenario.Distribute(opt, spec, f.clients, &f.stats)
		})
		return f.close, nil
	}
	redispatched := int64(0)
	records, err := runBatch(c, r, 2, build, func(tr *tracer, seed int64) (string, error) {
		fleet.current.Store(tr)
		defer fleet.current.Store(nil)
		before := fleet.stats.Redispatched()
		d, err := iter(tr, seed)
		n := fleet.stats.Redispatched() - before
		redispatched += n
		tr.add("dist.redispatched", float64(n))
		return d, err
	})
	if err != nil {
		return err
	}
	if redispatched > 0 {
		r.fail("%d tasks were re-dispatched between healthy workers", redispatched)
	}
	// The reference: the same sweep in-process must give the same bytes on
	// the same input. Traced runs check three inputs and time them for the
	// dist overhead ratio.
	refs := 1
	if c.trace {
		refs = 3
	}
	local := sweepIteration(spec, cells, nil)
	var distWall, localWall time.Duration
	for k := 0; k < refs && k < len(records); k++ {
		r.Attempted++
		start := time.Now()
		d, err := local(nil, inputSeed(c.seed, k))
		localWall += time.Since(start)
		distWall += records[k].Wall
		if err != nil {
			return fmt.Errorf("in-process reference sweep: %w", err)
		}
		if d != records[k].Digest {
			r.fail("input %d: distributed output %.12s differs from the in-process sweep's %.12s", k, records[k].Digest, d)
		}
	}
	if c.trace {
		r.set("dist.overhead_ratio", distWall.Seconds()/localWall.Seconds()-1, "ratio", refs)
	}
	return nil
}
