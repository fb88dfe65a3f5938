package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// The stream workload's size: a million clients, drained for two million
// jobs, so O(clients) set-up and the per-job merge both carry weight.
const (
	streamClients = 1_000_000
	streamJobs    = 2_000_000
)

func streamPopulation(seed int64, clients int) *workload.Population {
	return &workload.Population{
		Clients: clients,
		Mix: []workload.ClassShare{
			{Class: workload.ClassSynthetic, Weight: 2},
			{Class: workload.ClassGaming, Weight: 1},
		},
		Skew:   workload.Skew{Kind: "zipf"},
		Seed:   seed,
		Shards: 1,
	}
}

// streamIteration builds the population's source and drains it, checking
// that submit times never decrease and IDs are dense. Its output digest is
// an FNV-1a fold of every job's (ID, submit time bits, task count).
func streamIteration(clients, jobs int) iteration {
	return func(tr *tracer, seed int64) (string, error) {
		var src workload.JobSource
		if err := tr.timed("workload.source", func() error {
			var err error
			src, err = streamPopulation(seed, clients).Source()
			return err
		}); err != nil {
			return "", err
		}
		defer src.Close()
		var before snapshot
		if tr != nil {
			// Outside the timed spans: a forced GC makes the live heap exact.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			tr.add("workload.live_mib_after_source", float64(ms.HeapAlloc)/(1<<20))
			before = takeSnapshot()
		}
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		fold := uint64(offset64)
		var last sim.Time
		err := tr.timed("workload.next", func() error {
			for i := 1; i <= jobs; i++ {
				j := src.Next()
				if j == nil {
					return fmt.Errorf("stream ran dry at job %d", i)
				}
				if j.ID != i {
					return fmt.Errorf("job ID %d at position %d: IDs are not dense", j.ID, i)
				}
				if j.Submit < last {
					return fmt.Errorf("job %d submitted at %v, before its predecessor at %v", i, j.Submit, last)
				}
				last = j.Submit
				for _, v := range [3]uint64{uint64(j.ID), math.Float64bits(float64(j.Submit)), uint64(len(j.Tasks))} {
					fold ^= v
					fold *= prime64
				}
			}
			return nil
		})
		if err != nil {
			return "", err
		}
		if tr != nil {
			c := before.until(takeSnapshot())
			tr.add("workload.allocs_per_job", float64(c.Allocs)/float64(jobs))
			tr.add("workload.next_ns", float64(c.Wall.Nanoseconds())/float64(jobs))
		}
		return fmt.Sprintf("%016x", fold), nil
	}
}

func runStream(c *config, r *result) error {
	clients, jobs := streamClients, streamJobs
	if c.small {
		clients, jobs = streamClients/100, streamJobs/100
	}
	_, err := runBatch(c, r, 1, nil, streamIteration(clients, jobs))
	return err
}

func refStream(seed int64, _ time.Duration) (string, error) {
	return streamIteration(streamClients, streamJobs)(nil, seed)
}
