package sim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// resetObs is one observation of resetModel: the firing event, its time,
// and a draw from the stream it read.
type resetObs struct {
	name string
	at   Time
	draw int64
}

// resetModel drives k through a life that touches every part of the kernel
// a life can leave dirty: a batch of arrivals and a tick chain, follow-ups
// that draw from several named streams, cancellations of pending events,
// and, with stopAfter > 0, a Stop after that many events. The handlers
// append their observations to obs and the refs of the events they schedule
// with After to refs.
func resetModel(k *Kernel, streams []string, n, stopAfter int, obs *[]resetObs, refs *[]EventRef) {
	shape := k.Rand("shape")
	batch := make([]BatchEvent, n)
	for i := range batch {
		i := i
		batch[i] = BatchEvent{At: Time(shape.Intn(50)), Name: "arrive", Fn: func(k *Kernel) {
			stream := streams[i%len(streams)]
			r := k.Rand(stream)
			*obs = append(*obs, resetObs{name: "arrive/" + stream, at: k.Now(), draw: r.Int63()})
			if r.Intn(3) > 0 {
				*refs = append(*refs, k.After(Duration(r.Intn(20)), "follow", func(k *Kernel) {
					*obs = append(*obs, resetObs{name: "follow", at: k.Now(), draw: k.Rand(stream).Int63()})
				}))
			}
			if len(*refs) > 2 && r.Intn(4) == 0 {
				(*refs)[r.Intn(len(*refs))].Cancel()
			}
			if stopAfter > 0 && len(*obs) >= stopAfter {
				k.Stop()
			}
		}}
	}
	k.AtBatch(batch)
	k.AfterEach(7, 6, "tick", func(k *Kernel) {
		*obs = append(*obs, resetObs{name: "tick", at: k.Now(), draw: k.Rand("tick").Int63()})
	})
}

// TestKernelResetParity leaves a kernel dirty, resets it, and holds its next
// life against a new kernel with the same seed: event order, clock, fired
// counts, the process-wide fired count, each named stream's draws and the
// traced records must all match. The dirty lives end by Stop and by the
// horizon, with pending and cancelled events left, more streams than the
// next life uses, and a tracer attached. Refs into the dirty life must
// cancel nothing in the next one, also after Reserve grows the slab, and
// the kernel observer must see each life once.
func TestKernelResetParity(t *testing.T) {
	var lives []*TraceLog
	SetKernelObserver(func(k *Kernel) {
		log := &TraceLog{}
		k.SetTracer(log)
		lives = append(lives, log)
	})
	defer SetKernelObserver(nil)

	dirtyStreams := []string{"svc", "net", "disk", "extra"}
	streams := []string{"svc", "net", "cpu"}
	for _, dirty := range []string{"stop", "horizon"} {
		for _, reserve := range []int{0, 1 << 14} {
			t.Run(fmt.Sprintf("%s/reserve=%d", dirty, reserve), func(t *testing.T) {
				lives = nil
				k := NewKernel(3)
				var dirtyObs, stopObs []resetObs
				var stale []EventRef
				for i := range 50 {
					// Never fired, so slots 0..49, which the next life
					// fills first, keep the generation of their first use.
					stale = append(stale, k.At(Time(1000+i), "far", func(*Kernel) {}))
				}
				resetModel(k, dirtyStreams, 300, 0, &dirtyObs, &stale)
				var err error
				if dirty == "stop" {
					// A second batch stops the life midway.
					resetModel(k, dirtyStreams, 100, 60, &stopObs, &stale)
					err = k.Run()
				} else {
					k.SetHorizon(20)
					err = k.Run()
				}
				if dirty == "stop" && !errors.Is(err, ErrStopped) || dirty == "horizon" && err != nil {
					t.Fatalf("dirty life: Run = %v", err)
				}
				if k.Pending() == 0 || len(stale) < 100 {
					t.Fatalf("dirty life left %d pending events and %d refs", k.Pending(), len(stale))
				}
				for _, r := range stale[:len(stale)/2] {
					r.Cancel() // cancelled and never discarded
				}
				dirtyFired := k.fired

				before := GlobalEventsFired()
				k.Reset(42)
				fresh := NewKernel(42)
				if len(lives) != 3 {
					t.Fatalf("observer saw %d lives, want 3 (first life, reset, new kernel)", len(lives))
				}
				if k.Now() != 0 || k.fired != 0 || k.Pending() != 0 || k.Seed() != 42 {
					t.Fatalf("after Reset: now %v, fired %d, pending %d, seed %d",
						k.Now(), k.fired, k.Pending(), k.Seed())
				}
				k.Reserve(reserve)
				fresh.Reserve(reserve)
				var got, want []resetObs
				var gotRefs, wantRefs []EventRef
				resetModel(k, streams, 200, 0, &got, &gotRefs)
				resetModel(fresh, streams, 200, 0, &want, &wantRefs)
				for _, r := range stale {
					r.Cancel() // must be a no-op on the new life's events
				}

				base := GlobalEventsFired()
				if err := k.Run(); err != nil {
					t.Fatalf("reset kernel: Run = %v", err)
				}
				gotGlobal := GlobalEventsFired() - base
				base = GlobalEventsFired()
				if err := fresh.Run(); err != nil {
					t.Fatalf("new kernel: Run = %v", err)
				}
				wantGlobal := GlobalEventsFired() - base

				if len(got) < 200 || !slices.Equal(got, want) {
					t.Fatalf("reset kernel observed %d events, new kernel %d; first difference at %d",
						len(got), len(want), firstDiff(got, want))
				}
				if k.Now() != fresh.Now() || k.fired != fresh.fired {
					t.Fatalf("reset kernel ends at %v after %d events, new kernel at %v after %d",
						k.Now(), k.fired, fresh.Now(), fresh.fired)
				}
				if gotGlobal != wantGlobal || gotGlobal != k.fired {
					t.Fatalf("global count advanced %d for the reset kernel, %d for the new one, want %d",
						gotGlobal, wantGlobal, k.fired)
				}
				if d := GlobalEventsFired() - before; d != 2*k.fired {
					t.Fatalf("global count advanced %d over both lives, want %d (dirty life's %d counted once)",
						d, 2*k.fired, dirtyFired)
				}
				for _, name := range append(dirtyStreams, streams...) {
					for i := range 5 {
						if g, w := k.Rand(name).Int63(), fresh.Rand(name).Int63(); g != w {
							t.Fatalf("stream %q draw %d: reset kernel %d, new kernel %d", name, i, g, w)
						}
					}
				}
				if g, w := stripWall(lives[1].Records), stripWall(lives[2].Records); !reflect.DeepEqual(g, w) {
					t.Fatalf("reset life traced %d records, new kernel %d", len(g), len(w))
				}
			})
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []resetObs) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestKernelResetFlushesFired checks that events a life fired but had not
// flushed yet, when a handler resets its own kernel, count once globally,
// and that Reset detaches the tracer when no observer attaches another.
func TestKernelResetFlushesFired(t *testing.T) {
	k := NewKernel(1)
	k.SetTracer(NewProfile())
	before := GlobalEventsFired()
	for i := range 5 {
		k.At(Time(i), "e", func(*Kernel) {})
	}
	k.At(9, "reset", func(k *Kernel) { k.Reset(2) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d := GlobalEventsFired() - before; d != 6 {
		t.Fatalf("global count advanced %d, want 6", d)
	}
	if k.fired != 0 || k.Now() != 0 || k.tracer != nil {
		t.Fatalf("after Reset in a handler: fired %d, now %v, tracer %v", k.fired, k.Now(), k.tracer)
	}
}
