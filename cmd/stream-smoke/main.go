// Command stream-smoke is the CI gate for the streaming workload engine's
// memory contract: it streams -jobs jobs from a -clients-client population
// and fails if peak heap exceeds -budget-mb, proving resident state is
// O(clients), not O(jobs). It also re-checks the stream invariants
// (non-decreasing submits, dense IDs) while it is at it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

func main() {
	clients := flag.Int("clients", 1000000, "population size")
	jobs := flag.Int("jobs", 1000000, "jobs to stream")
	skew := flag.String("skew", "zipf", "per-client rate skew (none, zipf, lognormal)")
	shards := flag.Int("shards", 8, "generation goroutines")
	// A materialized million-job trace costs gigabytes; the streamed form
	// measures ~54 MiB (≈50 B/client, plus ~2 MiB of fixed merge-queue
	// chunks over 8 shards). 128 MiB leaves headroom for GC timing while
	// still failing fast on any O(jobs) regression.
	budgetMB := flag.Uint64("budget-mb", 128, "peak heap budget in MiB")
	flag.Parse()

	sk, err := workload.ParseSkew(*skew)
	if err != nil {
		fatal(err)
	}
	pop := &workload.Population{
		Clients: *clients,
		Mix: []workload.ClassShare{
			{Class: workload.ClassSynthetic, Weight: 2},
			{Class: workload.ClassGaming, Weight: 1},
		},
		Skew:   sk,
		Seed:   42,
		Shards: *shards,
	}
	src, err := pop.Source()
	if err != nil {
		fatal(err)
	}
	defer src.Close()

	var ms runtime.MemStats
	var peak uint64
	sample := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	sample()
	after := peak // heap right after O(clients) setup

	var last sim.Time
	for i := 1; i <= *jobs; i++ {
		j := src.Next()
		if j == nil {
			fatal(fmt.Errorf("stream ran dry at job %d", i))
		}
		if j.ID != i {
			fatal(fmt.Errorf("job ID %d at position %d", j.ID, i))
		}
		if j.Submit < last {
			fatal(fmt.Errorf("job %d: submit %v < previous %v", i, j.Submit, last))
		}
		last = j.Submit
		if i%50000 == 0 {
			sample()
		}
	}
	sample()

	budget := *budgetMB << 20
	fmt.Printf("stream-smoke: %d jobs from %d clients (skew=%s, shards=%d): heap after setup %d MiB, peak %d MiB, budget %d MiB\n",
		*jobs, *clients, sk.Kind, *shards, after>>20, peak>>20, *budgetMB)
	if peak > budget {
		fatal(fmt.Errorf("peak heap %d MiB exceeds budget %d MiB: per-job state is leaking", peak>>20, *budgetMB))
	}
	fmt.Println("stream-smoke: OK (resident memory O(clients))")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stream-smoke:", err)
	os.Exit(1)
}
