package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// snapshot is the process state the harness differences around a measured
// span: wall clock, process CPU (user+sys, every goroutine and the GC) and
// the runtime's cumulative heap allocation counters.
type snapshot struct {
	wall        time.Time
	cpu         time.Duration
	allocBytes  uint64
	allocObject uint64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return snapshot{
		wall:        time.Now(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:  s[0].Value.Uint64(),
		allocObject: s[1].Value.Uint64(),
	}
}

// cost is the difference between two snapshots, and the peak live heap
// between them when a heap sampler was running.
type cost struct {
	Wall, CPU  time.Duration
	AllocBytes uint64
	Allocs     uint64
	PeakMiB    float64
}

func (s snapshot) until(e snapshot) cost {
	return cost{
		Wall:       e.wall.Sub(s.wall),
		CPU:        e.cpu - s.cpu,
		AllocBytes: e.allocBytes - s.allocBytes,
		Allocs:     e.allocObject - s.allocObject,
	}
}

// heapSampler records the peak of the runtime's live-heap figure
// (/gc/heap/live:bytes, the heap marked live by the latest GC) sampled every
// 10 ms while it runs. Sampling allocates nothing, so it does not show in
// the allocation metrics.
type heapSampler struct {
	mu   sync.Mutex
	buf  [1]metrics.Sample
	peak uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.buf[0].Name = "/gc/heap/live:bytes"
	h.lap()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.mu.Lock()
				h.peak = max(h.peak, h.read())
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// read returns the live heap; the caller holds mu.
func (h *heapSampler) read() uint64 {
	metrics.Read(h.buf[:])
	return h.buf[0].Value.Uint64()
}

// lap returns the peak in MiB since the previous lap, and starts the next
// lap from the current live heap.
func (h *heapSampler) lap() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	live := h.read()
	peak := max(h.peak, live)
	h.peak = live
	return float64(peak) / (1 << 20)
}

// lapEvery laps the sampler every d until the returned function is called,
// which returns each interval's peak in MiB, the last partial one included.
func (h *heapSampler) lapEvery(d time.Duration) func() []float64 {
	var peaks []float64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				peaks = append(peaks, h.lap())
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		return append(peaks, h.lap())
	}
}

// Stop ends sampling and waits for the sampling goroutine to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// timeIterations calls iter with k = 0, 1, 2, ... until window has elapsed,
// at least once, and returns each call's cost.
func timeIterations(window time.Duration, iter func(k int) error) ([]cost, error) {
	var costs []cost
	hs := startHeapSampler()
	defer hs.Stop()
	begin := time.Now()
	for k := 0; k == 0 || time.Since(begin) < window; k++ {
		s := takeSnapshot()
		if err := iter(k); err != nil {
			return costs, err
		}
		c := s.until(takeSnapshot())
		c.PeakMiB = hs.lap()
		costs = append(costs, c)
	}
	return costs, nil
}
