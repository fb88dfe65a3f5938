package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"

	"atlarge/internal/dist"
	"atlarge/internal/exec"
)

// DistJobKind is the dist job kind under which sweep plans are built; the
// worker CLI registers WorkerBuilder under it.
const DistJobKind = "sweep"

// DistJob renders the spec as a distributable job document: the spec JSON
// (workload trace paths absolutized, since the worker has no spec directory
// to resolve against) plus the effective seed and replica count. Workers on
// other hosts must see the trace file at the same path (shared or copied
// filesystem); generated-workload specs carry everything on the wire.
func DistJob(s *Spec, seed int64, replicas int) (dist.Job, error) {
	// A fresh literal rather than *s: Spec embeds the trace-memo sync.Once,
	// which must not be copied.
	c := Spec{
		Version:   s.Version,
		Name:      s.Name,
		Domain:    s.Domain,
		Workload:  s.Workload,
		Cluster:   s.Cluster,
		Policy:    s.Policy,
		Autoscale: s.Autoscale,
		MMOG:      s.MMOG,
		Replicas:  s.Replicas,
		Seed:      s.Seed,
		Objective: s.Objective,
		Sweep:     s.Sweep,
	}
	if c.Workload.Trace != "" {
		abs, err := filepath.Abs(s.tracePath())
		if err != nil {
			return dist.Job{}, fmt.Errorf("scenario: resolve trace path: %w", err)
		}
		c.Workload.Trace = abs
	}
	raw, err := json.Marshal(&c)
	if err != nil {
		return dist.Job{}, fmt.Errorf("scenario: marshal spec: %w", err)
	}
	return dist.Job{Kind: DistJobKind, Spec: raw, Seed: seed, Replicas: replicas}, nil
}

// WorkerBuilder returns the dist plan builder for sweep jobs: parse the job's
// spec, expand it, and lay out one task per (cell, replica) — the identical
// IDs, order, and derived seeds Run uses, so task indices mean the same
// (cell, replica) on the worker as on the dispatcher. Task results are the
// cell's metric values as JSON, the exact bytes the checkpoint store and the
// dispatcher-side aggregation both consume.
//
// The builder keeps one trace memo for the worker's lifetime, keyed by a
// digest of the job document (spec bytes, seed, replicas), the WorkloadID
// and the workload seed, so cells of any claim share unscaled traces the way
// Run's cells do and rescale their own header copies. A task reserves its
// trace while it runs; the trace last released stays, so the next claim of
// the same group reuses it. A worker thus holds the traces of its running
// tasks plus one, however long the plan.
func WorkerBuilder() dist.Builder {
	return workerBuilder(&traceMemo{keepIdle: true})
}

// workerBuilder is WorkerBuilder over the given memo.
func workerBuilder(memo *traceMemo) dist.Builder {
	return func(j dist.Job) (*exec.Plan[json.RawMessage], error) {
		s, err := Parse(bytes.NewReader(j.Spec))
		if err != nil {
			return nil, err
		}
		if j.Replicas <= 0 {
			return nil, fmt.Errorf("scenario: job replicas must be positive, got %d", j.Replicas)
		}
		cells, err := Expand(s)
		if err != nil {
			return nil, err
		}
		// Two specs may share a name and so a WorkloadID: a digest of the
		// job document, spec bytes included, keeps one job's traces from
		// serving another.
		raw, err := json.Marshal(j)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(raw)
		job := string(sum[:])
		for i := range cells {
			cells[i].traces = memo
			cells[i].traceJob = job
		}
		return layoutPlan(cells, j.Seed, j.Replicas, func(t planTask) func(context.Context) (json.RawMessage, error) {
			key := traceKey{job: job, workloadID: t.workloadID, seed: t.workloadSeed}
			return func(context.Context) (json.RawMessage, error) {
				memo.reserve(key)
				defer memo.release(key)
				ms, err := t.cell.domain.Run(t.cell, t.workloadSeed, t.simSeed)
				if err != nil {
					return nil, err
				}
				return json.Marshal(ms)
			}
		})
	}
}

// Distribute switches a run onto remote workers: it describes the sweep as a
// dist job (using the same seed/replica resolution Run will apply to opt)
// and installs a dispatcher over the dialed clients as opt.Stream. The
// dispatcher claims the tasks of one trace together (see traceGroups), so
// each worker builds a trace once per group it serves. Everything else
// about Run — positional aggregation, checkpoint cache, progress, failure
// reporting — is unchanged, which is why the report bytes are too.
func Distribute(opt *Options, s *Spec, clients []*dist.Client, dstats *dist.Stats) error {
	seed, replicas := Effective(s, *opt)
	job, err := DistJob(s, seed, replicas)
	if err != nil {
		return err
	}
	cells, err := Expand(s)
	if err != nil {
		return err
	}
	groups, err := traceGroups(cells, seed, replicas)
	if err != nil {
		return err
	}
	d, err := dist.NewDispatcher[[]MetricValue](clients, dist.DispatchOptions{
		Job:      job,
		Groups:   groups,
		Parallel: opt.Parallelism,
		Stats:    dstats,
	})
	if err != nil {
		return err
	}
	opt.Stream = d.Stream
	return nil
}

// traceGroups lays the plan out and groups its task indices by the trace
// they read, (WorkloadID, workload seed), in order of first appearance.
func traceGroups(cells []Scenario, seed int64, replicas int) ([][]int, error) {
	group := make(map[traceKey]int)
	var groups [][]int
	index := 0 // layoutPlan calls back in plan order
	_, err := layoutPlan(cells, seed, replicas, func(t planTask) func(context.Context) (struct{}, error) {
		key := traceKey{workloadID: t.workloadID, seed: t.workloadSeed}
		g, ok := group[key]
		if !ok {
			g = len(groups)
			group[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], index)
		index++
		return nil
	})
	return groups, err
}
