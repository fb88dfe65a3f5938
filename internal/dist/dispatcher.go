package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"atlarge/internal/exec"
)

// Dispatch timing defaults.
const (
	// DefaultLease bounds the silence a dispatcher tolerates on a claim
	// stream before abandoning it and re-dispatching the unsettled tasks.
	DefaultLease = 15 * time.Second
	// defaultWorkerFailures is how many consecutive claim failures retire a
	// worker from the dispatch.
	defaultWorkerFailures = 3
)

// DispatchOptions tunes one dispatcher.
type DispatchOptions struct {
	// Job is the re-creatable work description sent with every claim.
	Job Job
	// Lease bounds per-line silence on claim streams; 0 means DefaultLease.
	Lease time.Duration
	// Groups lists the plan's task indices in dispatch order, cut into
	// groups of tasks that share an input (for sweeps: one trace). Claims
	// walk the groups in order and never span two, so a worker that keeps
	// an input between claims builds it once per group it serves. The
	// groups must list every index of the plan exactly once; nil means one
	// group in plan order.
	Groups [][]int
	// Parallel hints each worker's local pool size; 0 defers to the worker.
	// Claims are sized for the pools the hint leads to (see planClaims).
	Parallel int
	// Stats, when non-nil, receives the distributed-layer counters (remote
	// tasks in flight, re-dispatches, per-worker completions).
	Stats *Stats
	// MaxWorkerFailures retires a worker after that many consecutive failed
	// claims; 0 means defaultWorkerFailures.
	MaxWorkerFailures int
}

// Dispatcher executes plans across remote workers. Its Stream method has the
// executor seam's shape (exec.StreamFunc), so it substitutes for exec.Stream
// under any positional collector: one event per task, indexed by plan
// position, in completion order.
//
// Execution: tasks not served by the plan's Cache are cut, in the order of
// DispatchOptions.Groups, into claims that never span a group and shrink
// toward the tail (see planClaims), and queued; each live worker loops
// claiming task lists and streaming results back. A failed claim (broken
// stream, lease expiry, protocol violation) re-queues exactly the tasks the
// dispatcher has not seen as one claim — completed work never re-runs — and
// a worker that fails repeatedly is retired. If every worker is retired
// with tasks outstanding, those tasks settle with an error event each; a
// cancelled context settles them as skips, matching exec.Stream's contract.
type Dispatcher[R any] struct {
	clients []*Client
	opt     DispatchOptions
}

// NewDispatcher wires a dispatcher over already-dialed workers.
func NewDispatcher[R any](clients []*Client, opt DispatchOptions) (*Dispatcher[R], error) {
	if len(clients) == 0 {
		return nil, errors.New("dist: dispatcher needs at least one worker")
	}
	if opt.Lease <= 0 {
		opt.Lease = DefaultLease
	}
	if opt.MaxWorkerFailures <= 0 {
		opt.MaxWorkerFailures = defaultWorkerFailures
	}
	return &Dispatcher[R]{clients: clients, opt: opt}, nil
}

// coord is the shared dispatch state: the settled set, the claim queue, and
// the completion signal. A queued claim is an ascending list of task
// indices. The queue is a channel with capacity for every initial claim; a
// claim is re-queued at most once per pop (with its settled tasks
// excluded), so occupancy never exceeds the initial claim count.
type coord struct {
	mu        sync.Mutex
	settled   []bool
	remaining int

	queue chan []int
	done  chan struct{} // closed when remaining hits 0
}

// trySettle marks task i settled; false if it already was. Closing done on
// the last task releases workers blocked on an empty queue.
func (c *coord) trySettle(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled[i] {
		return false
	}
	c.settled[i] = true
	c.remaining--
	if c.remaining == 0 {
		close(c.done)
	}
	return true
}

// unsettled snapshots the tasks of the list not settled yet, in list order.
func (c *coord) unsettled(tasks []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, i := range tasks {
		if !c.settled[i] {
			out = append(out, i)
		}
	}
	return out
}

// planClaims cuts the pending tasks, walked in group order, into claims
// that shrink toward the tail of the plan (factoring, Hummel, Schonberg &
// Flynn, CACM 1992): each batch holds one claim per worker of
// ceil(remaining / (2 × workers)) tasks, so a batch hands out about half of
// what is left, but never fewer than slots, the local pool of the smallest
// worker, since a worker runs one claim at a time and a shorter claim would
// leave pool slots idle. Large early claims keep per-claim overhead low;
// small late ones let the workers finish together. A claim stops at the end
// of its group, so it never spans two inputs. Each claim is sorted
// ascending, as the protocol requires.
func planClaims(groups [][]int, workers, slots int) [][]int {
	remaining := 0
	for _, g := range groups {
		remaining += len(g)
	}
	var claims [][]int
	g, at := 0, 0 // the walk's position: groups[g][at:]
	for remaining > 0 {
		size := max((remaining+2*workers-1)/(2*workers), slots)
		for w := 0; w < workers && remaining > 0; w++ {
			for at == len(groups[g]) {
				g, at = g+1, 0
			}
			n := min(size, len(groups[g])-at)
			claim := groups[g][at : at+n : at+n]
			slices.Sort(claim)
			claims = append(claims, claim)
			at += n
			remaining -= n
		}
	}
	return claims
}

// Stream executes the plan across the dispatcher's workers and returns the
// event channel; see Dispatcher for the execution model. The channel closes
// after exactly len(p.Tasks) events, like exec.Stream's.
func (d *Dispatcher[R]) Stream(ctx context.Context, p *exec.Plan[R], eopt exec.Options[R]) <-chan exec.Event[R] {
	out := make(chan exec.Event[R])
	if p.Len() == 0 {
		close(out)
		return out
	}
	if eopt.Stats != nil {
		eopt.Stats.Enqueue(p.Len())
	}
	go d.run(ctx, p, eopt, out)
	return out
}

// settleEvent applies the shared accounting of one settled task and emits
// its event.
func settleEvent[R any](eopt exec.Options[R], out chan<- exec.Event[R], ev exec.Event[R]) {
	if eopt.Stats != nil {
		eopt.Stats.Settle(ev.Skipped, ev.Err != nil && !ev.Skipped)
	}
	out <- ev
}

func (d *Dispatcher[R]) run(ctx context.Context, p *exec.Plan[R], eopt exec.Options[R], out chan<- exec.Event[R]) {
	defer close(out)
	n := p.Len()
	groups := d.opt.Groups
	if groups == nil {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
	}
	c := &coord{settled: make([]bool, n), remaining: n, done: make(chan struct{})}

	// The shared content-addressed cache (the sweep checkpoint store) is
	// consulted up front: overlapping sweeps from concurrent clients dedup
	// here, and a resumed sweep only dispatches its missing tail.
	if eopt.Cache != nil {
		for i := 0; i < n; i++ {
			if r, ok := eopt.Cache.Load(p.Tasks[i].ID); ok {
				c.trySettle(i)
				settleEvent(eopt, out, exec.Event[R]{Index: i, ID: p.Tasks[i].ID, Result: r, Cached: true})
			}
		}
	}
	pending := make([][]int, 0, len(groups))
	for _, g := range groups {
		if g = c.unsettled(g); len(g) > 0 {
			pending = append(pending, g)
		}
	}
	if len(pending) == 0 {
		return
	}
	slots := d.clients[0].slots(d.opt.Parallel)
	for _, client := range d.clients[1:] {
		slots = min(slots, client.slots(d.opt.Parallel))
	}
	claims := planClaims(pending, len(d.clients), slots)
	c.queue = make(chan []int, len(claims))
	for _, cl := range claims {
		c.queue <- cl
	}

	var wg sync.WaitGroup
	for _, client := range d.clients {
		wg.Add(1)
		go func(client *Client) {
			defer wg.Done()
			d.workerLoop(ctx, c, client, p, eopt, out)
		}(client)
	}
	wg.Wait()

	// Whatever is still unsettled has no one left to run it: every worker
	// retired (error events) or the context fired (skips, exec semantics).
	c.mu.Lock()
	unsettled := make([]int, 0, c.remaining)
	for i := 0; i < n; i++ {
		if !c.settled[i] {
			unsettled = append(unsettled, i)
		}
	}
	c.mu.Unlock()
	for _, i := range unsettled {
		ev := exec.Event[R]{Index: i, ID: p.Tasks[i].ID}
		if err := ctx.Err(); err != nil {
			ev.Err = err
			ev.Skipped = true
		} else {
			ev.Err = fmt.Errorf("dist: task %s lost: all %d workers retired", p.Tasks[i].ID, len(d.clients))
		}
		settleEvent(eopt, out, ev)
	}
}

// workerLoop drives one worker: claim, stream, and on failure re-queue the
// lost tasks and back off; retire after MaxWorkerFailures consecutive
// failures.
func (d *Dispatcher[R]) workerLoop(ctx context.Context, c *coord, client *Client, p *exec.Plan[R], eopt exec.Options[R], out chan<- exec.Event[R]) {
	failures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case tasks := <-c.queue:
			missing, err := d.runClaim(ctx, c, client, tasks, p, eopt, out)
			if ctx.Err() != nil {
				return
			}
			if err == nil && len(missing) == 0 {
				failures = 0
				continue
			}
			// The claim is lost (wholly or partially): queue exactly the
			// unobserved tasks again, as one claim. Capacity is guaranteed —
			// re-queues are one-for-one with pops.
			if len(missing) > 0 {
				if d.opt.Stats != nil {
					d.opt.Stats.redispatched.Add(int64(len(missing)))
				}
				c.queue <- missing
			}
			failures++
			if failures >= d.opt.MaxWorkerFailures {
				return
			}
			// Brief backoff so a dead worker's loop does not spin through
			// its failure budget before the process is even noticed gone.
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(failures) * 100 * time.Millisecond):
			}
		}
	}
}

// runClaim executes one claim against one worker and returns the tasks it
// was responsible for that remain unsettled, plus the stream error if the
// claim did not terminate healthily.
func (d *Dispatcher[R]) runClaim(ctx context.Context, c *coord, client *Client, tasks []int, p *exec.Plan[R], eopt exec.Options[R], out chan<- exec.Event[R]) ([]int, error) {
	toRun := c.unsettled(tasks)
	if len(toRun) == 0 {
		return nil, nil
	}
	if d.opt.Stats != nil {
		d.opt.Stats.inflight.Add(int64(len(toRun)))
	}
	// Each settled task decrements the gauge as it lands; the deferred
	// correction removes whatever the claim lost (tasks that will re-queue).
	settledHere := 0
	defer func() {
		if d.opt.Stats != nil {
			d.opt.Stats.inflight.Add(int64(settledHere) - int64(len(toRun)))
		}
	}()

	creq := &ClaimRequest{
		Protocol:        ProtocolVersion,
		Job:             d.opt.Job,
		Tasks:           toRun,
		Parallel:        d.opt.Parallel,
		HeartbeatMillis: int(d.opt.Lease.Milliseconds() / 5),
	}
	err := client.Claim(ctx, creq, d.opt.Lease, func(m *Message) error {
		if _, ok := slices.BinarySearch(toRun, m.Index); !ok {
			return fmt.Errorf("dist: worker %s: task index %d is not in its claim", client.Name, m.Index)
		}
		if m.ID != p.Tasks[m.Index].ID {
			return fmt.Errorf("dist: worker %s: task %d identity mismatch: worker ran %q, plan holds %q (version skew?)",
				client.Name, m.Index, m.ID, p.Tasks[m.Index].ID)
		}
		ev := exec.Event[R]{Index: m.Index, ID: m.ID}
		if m.Type == MsgError {
			ev.Err = errors.New(m.Error)
		} else if err := json.Unmarshal(m.Result, &ev.Result); err != nil {
			return fmt.Errorf("dist: worker %s: task %s result: %w", client.Name, m.ID, err)
		}
		if !c.trySettle(m.Index) {
			return nil // a repeated line for a task already settled
		}
		settledHere++
		if ev.Err == nil && eopt.Cache != nil {
			eopt.Cache.Store(ev.ID, ev.Result)
		}
		if d.opt.Stats != nil {
			d.opt.Stats.inflight.Add(-1)
			d.opt.Stats.completed(client.Name)
		}
		settleEvent(eopt, out, ev)
		return nil
	})

	missing := c.unsettled(toRun)
	if err == nil && len(missing) > 0 {
		err = fmt.Errorf("dist: worker %s: claim finished but left %d of %d tasks unsettled",
			client.Name, len(missing), len(toRun))
	}
	return missing, err
}
