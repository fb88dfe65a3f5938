package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atlarge/internal/sim"
)

// checkQueue returns the first broken invariant of q, or nil: no block is
// empty or over blockCap, n is the sum of the block lengths, the minima are
// exact, and each block's job mask holds the bit of every item's job.
func checkQueue(q *taskQueue, job func(ref uint32) int) error {
	n := 0
	for bi, b := range q.blocks {
		if b.n < 1 || b.n > blockCap {
			return fmt.Errorf("block %d holds %d items", bi, b.n)
		}
		n += b.n
		minCPUs, minFast := math.MaxInt, sim.Duration(math.Inf(1))
		for _, it := range b.items[:b.n] {
			minCPUs, minFast = min(minCPUs, int(it.cpus)), min(minFast, it.fast)
			if id := job(it.ref); b.jobs&(1<<jobBit(id)) == 0 {
				return fmt.Errorf("block %d: mask %#x misses job %d of ref %d", bi, b.jobs, id, it.ref)
			}
		}
		if b.minCPUs != minCPUs || b.minFast != minFast {
			return fmt.Errorf("block %d: minima %d/%v, items give %d/%v", bi, b.minCPUs, b.minFast, minCPUs, minFast)
		}
	}
	if n != q.n {
		return fmt.Errorf("n = %d, blocks hold %d", q.n, n)
	}
	return nil
}

// flatten appends the queue's items to out in order.
func (q *taskQueue) flatten(out []qitem) []qitem {
	for _, b := range q.blocks {
		out = append(out, b.items[:b.n]...)
	}
	return out
}

// FuzzTaskQueue is a differential test of the block queue against a flat
// slice. Each op byte picks one of four operations, reading its arguments
// from the bytes that follow (zero once they run out):
//
//	0: push one item;
//	1: merge a batch of up to 8 items, each before the queued item at an
//	   index drawn from two bytes (ties keep the batch order);
//	2: remove a subset, compacting each block and settling it the way a
//	   dispatch scan does;
//	3: shuffle with a drawn seed.
//
// After each operation the order must match the slice and checkQueue must
// pass.
func FuzzTaskQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 4, 5, 6})
	f.Add(slices.Repeat([]byte{0, 7, 3, 9}, 100))
	f.Add(append(slices.Repeat([]byte{1, 7, 3, 9, 200, 17, 5, 1, 8, 0}, 40), 2, 200, 2, 131, 3, 5))
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var q taskQueue
		var want, got []qitem
		var jobs []int // by ref
		item := func() (qitem, uint8) {
			b := next()
			ref := uint32(len(jobs))
			jobs = append(jobs, int(b)*7)
			return qitem{fast: sim.Duration(b % 5), cpus: int32(1 + b%8), ref: ref}, jobBit(jobs[ref])
		}
		for len(ops) > 0 {
			switch op := next() % 4; op {
			case 0:
				it, bit := item()
				q.push(it, bit)
				want = append(want, it)
			case 1:
				moved := make([]mover, 1+next()%8)
				for i := range moved {
					it, bit := item()
					at := int(next())<<8 | int(next())
					moved[i] = mover{qitem: it, rank: int32(at % (len(want) + 1)), bit: bit}
				}
				slices.SortStableFunc(moved, func(a, b mover) int { return int(a.rank - b.rank) })
				q.merge(moved, func(x mover, k int, _ qitem) bool { return k >= int(x.rank) })
				for r := len(moved) - 1; r >= 0; r-- {
					want = slices.Insert(want, int(moved[r].rank), moved[r].qitem)
				}
			case 2:
				m := next()
				k := uint32(2 + m%6)
				drop := func(it qitem) bool { return (it.ref+uint32(m))%k == 0 == (m < 128) }
				for bi := 0; bi < len(q.blocks); {
					b := q.blocks[bi]
					n := 0
					for _, it := range b.items[:b.n] {
						if !drop(it) {
							b.items[n] = it
							n++
						}
					}
					bi = q.settle(bi, n)
				}
				want = slices.DeleteFunc(want, drop)
			case 3:
				seed := int64(next())
				q.shuffle(rand.New(rand.NewSource(seed)))
				rand.New(rand.NewSource(seed)).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
			}
			if got = q.flatten(got[:0]); !slices.Equal(got, want) {
				t.Fatalf("queue order diverged:\n got %v\nwant %v", got, want)
			}
			if err := checkQueue(&q, func(ref uint32) int { return jobs[ref] }); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestQueueInvariants checks the queue's invariants between dispatch cycles
// of the overload runs, whose queues span many blocks, under every
// registered policy.
func TestQueueInvariants(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			s := new(Simulator)
			s.Reset(compositeOf(overloadEnvs[seed]...), overloadTrace(seed, 20), p, seed)
			var bad error
			most := 0
			s.OnJob = func(JobStats) {
				most = max(most, len(s.queue.blocks))
				if bad == nil {
					bad = checkQueue(&s.queue, func(ref uint32) int { return s.states.at(ref).Job.ID })
				}
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if bad != nil {
				t.Errorf("%s seed %d: %v", name, seed, bad)
			}
			if most < 8 {
				t.Errorf("%s seed %d: the queue spanned at most %d blocks, want a run over many", name, seed, most)
			}
		}
	}
}
