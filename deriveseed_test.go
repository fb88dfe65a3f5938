package atlarge

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"time"
)

// TestDeriveSeedNoCollisions sweeps the full registered-ID × 64-replica grid
// (the largest replica count the serve API accepts) across several base
// seeds: every (id, replica) pair must map to a distinct seed, because the
// whole determinism story — positional collection, common random numbers,
// checkpoint resume — rests on decorrelated per-task seeds.
func TestDeriveSeedNoCollisions(t *testing.T) {
	const replicas = 64
	ids := DefaultRegistry().IDs()
	if len(ids) == 0 {
		t.Fatal("empty registry")
	}
	for _, base := range []int64{0, 1, 42, -1, 1 << 62} {
		seen := make(map[int64]string, len(ids)*replicas)
		for _, id := range ids {
			for rep := 0; rep < replicas; rep++ {
				s := DeriveSeed(base, id, rep)
				key := fmt.Sprintf("%s/%d", id, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("base %d: seed collision: %s and %s both -> %d", base, prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestDeriveSeedReplicaAvalanche: incrementing the replica by one must flip
// close to half the output bits on average (the splitmix64 finalizer's
// avalanche property). A weak mixer here would correlate adjacent replicas
// and quietly narrow every confidence interval the aggregation reports.
func TestDeriveSeedReplicaAvalanche(t *testing.T) {
	ids := DefaultRegistry().IDs()
	totalBits, pairs := 0, 0
	minBits := 64
	for _, id := range ids {
		for rep := 0; rep < 64; rep++ {
			a := uint64(DeriveSeed(42, id, rep))
			b := uint64(DeriveSeed(42, id, rep+1))
			flipped := bits.OnesCount64(a ^ b)
			totalBits += flipped
			pairs++
			if flipped < minBits {
				minBits = flipped
			}
		}
	}
	mean := float64(totalBits) / float64(pairs)
	// A perfect mixer flips 32 bits on average with σ = 4; the grid mean
	// over ~800 pairs should sit well inside 32 ± 2, and no single pair
	// should land in the degenerate tails.
	if mean < 30 || mean > 34 {
		t.Errorf("replica-increment avalanche mean = %.2f flipped bits, want ~32", mean)
	}
	if minBits < 10 {
		t.Errorf("weakest replica pair flips only %d bits", minBits)
	}
}

// TestDeriveSeedBaseAvalanche: the base seed must avalanche too, so two
// sweeps under adjacent base seeds share nothing.
func TestDeriveSeedBaseAvalanche(t *testing.T) {
	totalBits, pairs := 0, 0
	for _, id := range DefaultRegistry().IDs() {
		for base := int64(0); base < 64; base++ {
			a := uint64(DeriveSeed(base, id, 0))
			b := uint64(DeriveSeed(base+1, id, 0))
			totalBits += bits.OnesCount64(a ^ b)
			pairs++
		}
	}
	if mean := float64(totalBits) / float64(pairs); mean < 30 || mean > 34 {
		t.Errorf("base-increment avalanche mean = %.2f flipped bits, want ~32", mean)
	}
}

// TestRunnerCancellation: a hanging experiment under a cancelled context
// must return promptly with the context error — and the worker pool must
// wind down without leaking goroutines.
func TestRunnerCancellation(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Experiment{ID: "quick", Order: 1, Run: func(_ context.Context, seed int64) (*Report, error) {
		rep := NewReport("quick", "quick")
		rep.AddMetric(Metric{Name: "x", Value: 1})
		return rep, nil
	}})
	// A "hung" experiment: it never finishes on its own and only returns
	// when the runner's context fires.
	reg.MustRegister(Experiment{ID: "hang", Order: 2, Run: func(ctx context.Context, seed int64) (*Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	results, err := (&Runner{Registry: reg, Parallelism: 4}).RunContext(ctx, []string{"quick", "hang"}, 42)
	elapsed := time.Since(start)

	if elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", elapsed)
	}
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("joined error = %v, want context.DeadlineExceeded", err)
	}
	if results[0].Err != nil || results[0].Report == nil {
		t.Errorf("finished experiment damaged by cancellation: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Errorf("hung experiment error = %v, want context.DeadlineExceeded", results[1].Err)
	}

	// No goroutine may outlive the run: poll because worker exit is
	// asynchronous with result delivery.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after cancelled run", before, g)
	}
}

// TestRunnerCancellationSkipsUnstarted: with one worker and many tasks, a
// cancel mid-plan must mark every unstarted task with the context error
// without running it.
func TestRunnerCancellationSkipsUnstarted(t *testing.T) {
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	reg.MustRegister(Experiment{ID: "a", Order: 1, Run: func(_ context.Context, seed int64) (*Report, error) {
		ran++
		cancel() // cancel while the first task is the only one started
		rep := NewReport("a", "a")
		rep.AddMetric(Metric{Name: "x", Value: 1})
		return rep, nil
	}})
	reg.MustRegister(Experiment{ID: "b", Order: 2, Run: func(_ context.Context, seed int64) (*Report, error) {
		ran++
		return NewReport("b", "b"), nil
	}})

	results, err := (&Runner{Registry: reg, Parallelism: 1}).RunContext(ctx, []string{"a", "b"}, 42)
	if ran != 1 {
		t.Fatalf("ran %d experiments, want 1 (b must be skipped)", ran)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error = %v, want context.Canceled", err)
	}
	// The task that completed before cancellation keeps its report.
	if results[0].Err != nil || results[0].Report == nil {
		t.Errorf("completed-before-cancel result damaged: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("skipped experiment error = %v, want context.Canceled", results[1].Err)
	}
}
