// Package sched simulates task scheduling on cluster environments. It
// provides the scheduling policies that form the portfolio of the paper's
// portfolio-scheduling experiments (Table 9) and the job-level metrics
// (wait, response, bounded slowdown, makespan, utilization) used throughout
// the evaluation.
package sched

import (
	"cmp"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// TaskState is a task waiting in or dispatched from the scheduler queue.
type TaskState struct {
	Job   *workload.Job
	Task  *workload.Task
	Ready sim.Time // when the task became eligible (deps satisfied)

	// Set when dispatched.
	Started  bool
	StartAt  sim.Time
	FinishAt sim.Time

	js  *jobState // the run's bookkeeping for Job, shared by its tasks
	pos int       // queue index when an ordering pass began (merge tie-break)
}

// Policy declares the dispatch order of the eligible-task queue and its
// backfill semantics. The simulator keeps the queue in the order a stable
// sort by Compare would give: tasks that compare equal keep their queue
// order.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Compare orders two queued tasks: negative when a dispatches first.
	Compare(a, b *TaskState) int
	// AllowSkip reports whether tasks behind a non-fitting task may be
	// dispatched (backfilling). Strict FCFS returns false.
	AllowSkip() bool
	// EasyReservation reports whether skipping is additionally constrained
	// by EASY semantics: a backfilled task must not delay the estimated
	// start of the queue head.
	EasyReservation() bool
	// StaticOrder reports whether Compare reads only per-task keys fixed at
	// enqueue time. Otherwise Compare may also read the served work of the
	// task's job (FairShare does), and the simulator re-orders the queued
	// tasks of every job whose served work changed.
	StaticOrder() bool
	// Random reports whether the policy dispatches in a fresh random order
	// each cycle instead: the simulator shuffles the queue with the run's
	// deterministic "policy" stream and ignores Compare. A shuffle consumes
	// that stream, so no cycle may be skipped.
	Random() bool
}

// basePolicy is a Policy built from a comparator and its trait flags.
type basePolicy struct {
	name   string
	skip   bool
	easy   bool
	static bool
	random bool
	cmp    func(a, b *TaskState) int
}

func (p basePolicy) Name() string                { return p.name }
func (p basePolicy) AllowSkip() bool             { return p.skip }
func (p basePolicy) EasyReservation() bool       { return p.easy }
func (p basePolicy) StaticOrder() bool           { return p.static }
func (p basePolicy) Random() bool                { return p.random }
func (p basePolicy) Compare(a, b *TaskState) int { return p.cmp(a, b) }

// byReady orders by eligibility time then job then task ID, the FCFS order.
func byReady(a, b *TaskState) int {
	if c := cmp.Compare(a.Ready, b.Ready); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Job.ID, b.Job.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Task.ID, b.Task.ID)
}

// FCFS is strict first-come-first-served: the queue head blocks everything
// behind it.
func FCFS() Policy { return basePolicy{name: "FCFS", static: true, cmp: byReady} }

// GreedyBackfill is FCFS order with unrestricted skipping: any task that fits
// runs, which maximizes utilization but can starve wide tasks.
func GreedyBackfill() Policy {
	return basePolicy{name: "GreedyBF", skip: true, static: true, cmp: byReady}
}

// EASYBackfill is FCFS with conservative (EASY) backfilling: tasks may jump
// the queue only when their estimated finish does not delay the reservation
// of the queue head.
func EASYBackfill() Policy {
	return basePolicy{name: "EASY-BF", skip: true, easy: true, static: true, cmp: byReady}
}

// SJF dispatches the task with the shortest estimated runtime first
// (shortest-job-first), with skipping.
func SJF() Policy {
	return basePolicy{name: "SJF", skip: true, static: true, cmp: func(a, b *TaskState) int {
		return cmp.Compare(a.Task.RuntimeEstimate, b.Task.RuntimeEstimate)
	}}
}

// LJF dispatches the task with the longest estimated runtime first, with
// skipping. It approximates reservation-style policies that favor large work.
func LJF() Policy {
	return basePolicy{name: "LJF", skip: true, static: true, cmp: func(a, b *TaskState) int {
		return cmp.Compare(b.Task.RuntimeEstimate, a.Task.RuntimeEstimate)
	}}
}

// WFP orders by the widest task first (most CPUs), breaking ties by age; it
// approximates the WFP3 class of slowdown-aware policies.
func WFP() Policy {
	return basePolicy{name: "WFP", skip: true, static: true, cmp: func(a, b *TaskState) int {
		if c := cmp.Compare(b.Task.CPUs, a.Task.CPUs); c != 0 {
			return c
		}
		return cmp.Compare(a.Ready, b.Ready)
	}}
}

// FairShare favors the job that has consumed the least CPU-seconds so far,
// equalizing service across jobs.
func FairShare() Policy {
	return basePolicy{name: "FairShare", skip: true, cmp: func(a, b *TaskState) int {
		if c := cmp.Compare(a.js.served, b.js.served); c != 0 {
			return c
		}
		return cmp.Compare(a.Ready, b.Ready)
	}}
}

// RandomOrder dispatches in a random order; the baseline "no intelligence"
// policy.
func RandomOrder() Policy {
	return basePolicy{name: "Random", skip: true, random: true, cmp: func(*TaskState, *TaskState) int { return 0 }}
}

// DefaultPortfolio returns the standard policy set used by the portfolio
// scheduler.
func DefaultPortfolio() []Policy {
	return []Policy{FCFS(), GreedyBackfill(), EASYBackfill(), SJF(), LJF(), WFP(), FairShare()}
}
