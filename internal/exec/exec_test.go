package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memCache is a minimal in-memory Cache for tests.
type memCache[R any] struct {
	mu sync.Mutex
	m  map[string]R
}

func newMemCache[R any]() *memCache[R] { return &memCache[R]{m: map[string]R{}} }

func (c *memCache[R]) Load(id string) (R, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[id]
	return r, ok
}

func (c *memCache[R]) Store(id string, r R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[id] = r
}

// squarePlan is n tasks computing i*i.
func squarePlan(n int) *Plan[int] {
	p := &Plan[int]{}
	for i := 0; i < n; i++ {
		i := i
		p.Add(fmt.Sprintf("task-%d", i), func(context.Context) (int, error) { return i * i, nil })
	}
	return p
}

// TestStreamPositionalParity: positional collection must be identical at any
// worker count, and every task must emit exactly one event.
func TestStreamPositionalParity(t *testing.T) {
	const n = 64
	want, wantErrs := Run(context.Background(), squarePlan(n), Options[int]{Workers: 1})
	for _, err := range wantErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{2, 7, 16, 128} {
		got, _ := Run(context.Background(), squarePlan(n), Options[int]{Workers: workers})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestStreamEmptyPlan(t *testing.T) {
	events := Stream(context.Background(), &Plan[int]{}, Options[int]{})
	if _, ok := <-events; ok {
		t.Fatal("empty plan emitted an event")
	}
}

// TestStreamEventPerTask: exactly one event per task, indices covering the
// plan once.
func TestStreamEventPerTask(t *testing.T) {
	const n = 33
	seen := make([]int, n)
	events := Stream(context.Background(), squarePlan(n), Options[int]{Workers: 5})
	count := 0
	for ev := range events {
		seen[ev.Index]++
		count++
	}
	if count != n {
		t.Fatalf("events = %d, want %d", count, n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("task %d emitted %d events, want 1", i, c)
		}
	}
}

// TestStreamTaskErrors: a failing task carries its error without disturbing
// the others.
func TestStreamTaskErrors(t *testing.T) {
	boom := errors.New("boom")
	p := &Plan[int]{}
	p.Add("ok", func(context.Context) (int, error) { return 1, nil })
	p.Add("bad", func(context.Context) (int, error) { return 0, boom })
	p.Add("ok2", func(context.Context) (int, error) { return 3, nil })
	results, errs := Run(context.Background(), p, Options[int]{Workers: 2})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy tasks errored: %v %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], boom) {
		t.Fatalf("errs[1] = %v, want boom", errs[1])
	}
	if results[0] != 1 || results[2] != 3 {
		t.Fatalf("results damaged: %v", results)
	}
}

// TestStreamTaskPanic: a panicking task settles as a *PanicError carrying
// the panic value and a stack, every other task still completes, and the
// shared counters drain.
func TestStreamTaskPanic(t *testing.T) {
	stats := &Stats{}
	p := squarePlan(6)
	p.Add("poison", func(context.Context) (int, error) { panic("poisoned") })
	results, errs := Run(context.Background(), p, Options[int]{Workers: 3, Stats: stats})
	var pe *PanicError
	if !errors.As(errs[6], &pe) || pe.Task != "poison" || pe.Value != "poisoned" || len(pe.Stack) == 0 {
		t.Fatalf("errs[6] = %v, want a *PanicError for poison with a stack", errs[6])
	}
	if !strings.Contains(pe.Error(), "poisoned") {
		t.Errorf("panic error %q does not name the panic value", pe.Error())
	}
	for i := 0; i < 6; i++ {
		if errs[i] != nil || results[i] != i*i {
			t.Errorf("task %d: result %d, err %v", i, results[i], errs[i])
		}
	}
	if stats.Running() != 0 || stats.Pending() != 0 {
		t.Errorf("counters did not drain: running %d pending %d", stats.Running(), stats.Pending())
	}
	if stats.Completed() != 6 || stats.Failed() != 1 {
		t.Errorf("completed %d failed %d, want 6 and 1", stats.Completed(), stats.Failed())
	}
}

// TestStreamCancellation: cancelling mid-plan must skip the unclaimed tail
// with the context error, return promptly, and leak no goroutines.
func TestStreamCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 50
	var started atomic.Int64
	p := &Plan[int]{}
	for i := 0; i < n; i++ {
		i := i
		p.Add(fmt.Sprintf("t%d", i), func(ctx context.Context) (int, error) {
			if started.Add(1) == 3 {
				cancel() // cancel once a few tasks are in flight
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return i, nil
			}
		})
	}

	done := make(chan struct{})
	var skipped, errored int
	go func() {
		defer close(done)
		for ev := range Stream(ctx, p, Options[int]{Workers: 4}) {
			if ev.Skipped {
				skipped++
			}
			if errors.Is(ev.Err, context.Canceled) {
				errored++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream did not drain promptly")
	}
	if skipped == 0 {
		t.Error("no tasks were skipped after cancellation")
	}
	if errored == 0 {
		t.Error("no events carried the context error")
	}

	// The pool must wind down completely: poll because worker exit is
	// asynchronous with channel close.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestStreamCache: a second execution over a warm cache must serve every
// task from it, running nothing.
func TestStreamCache(t *testing.T) {
	cache := newMemCache[int]()
	var runs atomic.Int64
	plan := func() *Plan[int] {
		p := &Plan[int]{}
		for i := 0; i < 10; i++ {
			i := i
			p.Add(fmt.Sprintf("t%d", i), func(context.Context) (int, error) {
				runs.Add(1)
				return i * 10, nil
			})
		}
		return p
	}

	first, _ := Run(context.Background(), plan(), Options[int]{Workers: 3, Cache: cache})
	if got := runs.Load(); got != 10 {
		t.Fatalf("cold run executed %d tasks, want 10", got)
	}

	var cached int
	second, _ := Collect(Stream(context.Background(), plan(), Options[int]{Workers: 3, Cache: cache}), 10, func(ev Event[int]) {
		if ev.Cached {
			cached++
		}
	})
	if got := runs.Load(); got != 10 {
		t.Fatalf("warm run re-executed tasks: %d total runs, want 10", got)
	}
	if cached != 10 {
		t.Fatalf("cached events = %d, want 10", cached)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached result[%d] = %d, want %d", i, second[i], first[i])
		}
	}
}

// TestStreamPartialCache: with half the cache warm, only the cold half runs
// and the positional layout is unchanged.
func TestStreamPartialCache(t *testing.T) {
	cache := newMemCache[int]()
	for i := 0; i < 10; i += 2 {
		cache.Store(fmt.Sprintf("t%d", i), i*10)
	}
	var runs atomic.Int64
	p := &Plan[int]{}
	for i := 0; i < 10; i++ {
		i := i
		p.Add(fmt.Sprintf("t%d", i), func(context.Context) (int, error) {
			runs.Add(1)
			return i * 10, nil
		})
	}
	results, errs := Run(context.Background(), p, Options[int]{Workers: 4, Cache: cache})
	if got := runs.Load(); got != 5 {
		t.Fatalf("ran %d tasks, want 5 (odd half)", got)
	}
	for i := range results {
		if errs[i] != nil || results[i] != i*10 {
			t.Fatalf("result[%d] = %d (err %v), want %d", i, results[i], errs[i], i*10)
		}
	}
}

// TestStreamFailedTaskNotCached: failures must not poison the cache.
func TestStreamFailedTaskNotCached(t *testing.T) {
	cache := newMemCache[int]()
	attempt := 0
	p := &Plan[int]{}
	p.Add("flaky", func(context.Context) (int, error) {
		attempt++
		if attempt == 1 {
			return 0, errors.New("transient")
		}
		return 7, nil
	})
	if _, errs := Run(context.Background(), p, Options[int]{Workers: 1, Cache: cache}); errs[0] == nil {
		t.Fatal("first attempt should fail")
	}
	results, errs := Run(context.Background(), p, Options[int]{Workers: 1, Cache: cache})
	if errs[0] != nil || results[0] != 7 {
		t.Fatalf("retry got (%d, %v), want (7, nil)", results[0], errs[0])
	}
}

// TestStats: the shared Stats counters track a plan through its lifecycle —
// pending drains to zero, completions and failures split correctly, and a
// second plan accumulates onto the same counters.
func TestStats(t *testing.T) {
	stats := &Stats{}
	p := squarePlan(6)
	p.Add("boom", func(context.Context) (int, error) { return 0, errors.New("boom") })
	_, errs := Run(context.Background(), p, Options[int]{Workers: 3, Stats: stats})
	failures := 0
	for _, err := range errs {
		if err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("errs = %v, want exactly the failing task's error", errs)
	}
	if got := stats.Pending(); got != 0 {
		t.Errorf("pending = %d, want 0 after drain", got)
	}
	if got := stats.Running(); got != 0 {
		t.Errorf("running = %d, want 0 after drain", got)
	}
	if got := stats.Completed(); got != 6 {
		t.Errorf("completed = %d, want 6", got)
	}
	if got := stats.Failed(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}

	_, errs = Run(context.Background(), squarePlan(2), Options[int]{Workers: 1, Stats: stats})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Completed(); got != 8 {
		t.Errorf("completed after second plan = %d, want 8", got)
	}
}

// TestStatsRunningDuringExecution: the running gauge is live while tasks
// hold the pool.
func TestStatsRunningDuringExecution(t *testing.T) {
	stats := &Stats{}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	p := &Plan[int]{}
	for i := 0; i < 2; i++ {
		p.Add(fmt.Sprintf("hold-%d", i), func(context.Context) (int, error) {
			started <- struct{}{}
			<-release
			return 0, nil
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Run(context.Background(), p, Options[int]{Workers: 2, Stats: stats})
	}()
	<-started
	<-started
	if got := stats.Running(); got != 2 {
		t.Errorf("running = %d, want 2 while tasks are parked", got)
	}
	if got := stats.Pending(); got != 2 {
		t.Errorf("pending = %d, want 2 while tasks are parked", got)
	}
	close(release)
	<-done
	if stats.Running() != 0 || stats.Pending() != 0 {
		t.Errorf("counters did not drain: running %d pending %d", stats.Running(), stats.Pending())
	}
}
