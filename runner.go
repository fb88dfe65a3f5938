package atlarge

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"atlarge/internal/exec"
)

// Runner executes registered experiments across a bounded worker pool. It is
// a thin adapter over the streaming work-plan executor (internal/exec): the
// plan holds one task per (experiment, replica), completions stream back as
// they finish, and collection is positional.
//
// Every (experiment, replica) pair derives its own seed from the base seed,
// and results are collected positionally, so the output is identical for any
// parallelism level — running with Parallelism 8 and Parallelism 1 must and
// does produce byte-identical reports.
type Runner struct {
	// Registry supplies the experiments; nil means DefaultRegistry().
	Registry *Registry
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int
	// Replicas runs each experiment this many times under distinct derived
	// seeds and aggregates numeric outputs (mean and 95% confidence
	// interval); <= 0 means 1.
	Replicas int
	// Progress, when non-nil, observes every task completion as it streams
	// out of the executor: done counts completions so far (including the one
	// being reported), total is the plan size, and id names the finished
	// (experiment, replica) task ("tab9#2"). Calls arrive sequentially from
	// the collecting goroutine, in completion order.
	Progress func(done, total int, id string)
	// Stats, when non-nil, receives the executor's live queue counters
	// (shared across runs by the serve layer for backpressure and metrics).
	Stats *exec.Stats
	// SpanObserver, when non-nil, turns on executor span recording and
	// receives every non-skipped task's span (see exec.TaskSpan) along with
	// the task's error, in completion order from the collecting goroutine.
	SpanObserver func(index int, id string, span exec.TaskSpan, err error)
}

// Result is the outcome of one experiment under the Runner.
type Result struct {
	ID    string
	Title string
	// Seed is the derived base seed of replica 0.
	Seed int64
	// Report is the replica-0 report (the canonical single-run output).
	Report *Report
	// Reports holds every replica's report, replica index order.
	Reports []*Report
	// Aggregate is the value-space aggregation of the replica documents
	// (see AggregateReports): every metric and numeric table cell carries
	// the replica mean with a 95% CI half-width, labels matched exactly.
	// Nil when Replicas == 1.
	Aggregate *Report
	// Err is the first error any replica produced, nil on success.
	Err error
	// Elapsed sums the run time of all replicas of this experiment.
	Elapsed time.Duration
}

// DeriveSeed maps (base seed, experiment ID, replica) to the seed an
// experiment replica runs under. The derivation is an FNV-1a hash of the ID
// finalized with a splitmix64 mix, so experiments are decorrelated from each
// other and replicas from one another, yet every run with the same inputs
// sees the same seed regardless of execution order.
func DeriveSeed(base int64, id string, replica int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= uint64(base)
	h += uint64(replica) * 0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// RunAll executes every registered experiment in catalog order.
func (r *Runner) RunAll(baseSeed int64) ([]Result, error) {
	return r.Run(r.registry().IDs(), baseSeed)
}

// Run executes the given experiments; it is RunContext under a background
// context.
func (r *Runner) Run(ids []string, baseSeed int64) ([]Result, error) {
	return r.RunContext(context.Background(), ids, baseSeed)
}

// RunContext executes the given experiments under a context. Unknown IDs
// fail the whole call with the canonical unknown-experiment error before
// anything runs. Individual experiment failures are reported per Result (and
// joined into the returned error) without aborting the other experiments.
//
// Cancelling ctx stops the run cooperatively: tasks not yet started are
// skipped, in-flight experiments that honour ctx (Experiment.Run)
// return early, and every unfinished (experiment, replica) carries the
// context's error in its Result and in the joined return error.
func (r *Runner) RunContext(ctx context.Context, ids []string, baseSeed int64) ([]Result, error) {
	reg := r.registry()
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := reg.Get(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	replicas := r.Replicas
	if replicas <= 0 {
		replicas = 1
	}

	// One task per (experiment, replica), in experiment-major order; the
	// positional index i*replicas+k is the collection slot, so reports land
	// exactly where the sequential loop would have put them.
	plan := &exec.Plan[*Report]{}
	for i := range exps {
		e := exps[i]
		for k := 0; k < replicas; k++ {
			seed := DeriveSeed(baseSeed, e.ID, k)
			plan.Add(e.ID+"#"+strconv.Itoa(k), func(ctx context.Context) (*Report, error) {
				return e.Run(ctx, seed)
			})
		}
	}

	events := exec.Stream(ctx, plan, exec.Options[*Report]{
		Workers: r.Parallelism,
		Stats:   r.Stats,
		Spans:   r.SpanObserver != nil,
	})
	elapsed := make([]time.Duration, plan.Len())
	done := 0
	reports, errs := exec.Collect(events, plan.Len(), func(ev exec.Event[*Report]) {
		elapsed[ev.Index] = ev.Elapsed
		done++
		if r.Progress != nil {
			r.Progress(done, plan.Len(), ev.ID)
		}
		if r.SpanObserver != nil && ev.Span != nil {
			r.SpanObserver(ev.Index, ev.ID, *ev.Span, ev.Err)
		}
	})

	results := make([]Result, len(exps))
	var failures []error
	for i, e := range exps {
		res := Result{
			ID:    e.ID,
			Title: e.Title,
			Seed:  DeriveSeed(baseSeed, e.ID, 0),
			// Full slice expression: capacity stops at this experiment's
			// window, so a caller appending to Reports can never clobber
			// the next experiment's replica slots.
			Reports: reports[i*replicas : (i+1)*replicas : (i+1)*replicas],
		}
		for k := 0; k < replicas; k++ {
			res.Elapsed += elapsed[i*replicas+k]
			if err := errs[i*replicas+k]; err != nil && res.Err == nil {
				res.Err = fmt.Errorf("atlarge: experiment %s (replica %d): %w", e.ID, k, err)
			}
		}
		if res.Err != nil {
			failures = append(failures, res.Err)
		} else {
			res.Report = res.Reports[0]
			if replicas > 1 {
				res.Aggregate = AggregateReports(res.Reports)
			}
		}
		results[i] = res
	}
	return results, errors.Join(failures...)
}

func (r *Runner) registry() *Registry {
	if r.Registry != nil {
		return r.Registry
	}
	return DefaultRegistry()
}

// RunAll executes every registered experiment with the default parallel
// runner (GOMAXPROCS workers, one replica).
func RunAll(seed int64) ([]Result, error) {
	return (&Runner{}).RunAll(seed)
}
