package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"atlarge/internal/heap4"
)

// refMergeCore is the 4-ary-heap client merge that the monotone radix queue
// replaced, kept as the reference the parity test compares against: one
// heap node per client, Floyd-heapified at start, replace-top per job.
type refMergeCore struct {
	cfg     popConfig
	clients []client
	heap    []heap4.Node
	src     clientSource
	r       *rand.Rand
	sc      genScratch
	job     Job
	seq     int
	taskID  int
}

// newRefMergeCore is newPopulationSource over the heap merge.
func newRefMergeCore(cfg popConfig, clients int) *refMergeCore {
	mc := &refMergeCore{
		cfg:     cfg,
		clients: make([]client, clients),
		heap:    make([]heap4.Node, clients),
	}
	sum := 0.0
	if cfg.skew.Kind == "zipf" {
		for j := range mc.clients {
			w := math.Pow(float64(j+1), -cfg.skew.S)
			mc.clients[j].mult = w
			sum += w
		}
	}
	mc.start(sum / float64(clients))
	return mc
}

func (mc *refMergeCore) start(zipfNorm float64) {
	cfg := &mc.cfg
	mc.r = rand.New(&mc.src)
	for i := range mc.clients {
		c := &mc.clients[i]
		c.rng = uint64(DeriveSeed(cfg.seed, i))
		mc.src.state = &c.rng
		ci := 0
		if len(cfg.gens) > 1 {
			u := mc.r.Float64() * cfg.cum[len(cfg.cum)-1]
			for ci < len(cfg.cum)-1 && u > cfg.cum[ci] {
				ci++
			}
		}
		c.class = uint16(ci)
		mult := cfg.rateScale
		switch cfg.skew.Kind {
		case "zipf":
			mult *= c.mult / zipfNorm
		case "lognormal":
			z := mc.r.NormFloat64()
			mult *= math.Exp(cfg.skew.Sigma*z - cfg.skew.Sigma*cfg.skew.Sigma/2)
		}
		c.mult = mult
		c.next = cfg.gens[ci].Arrivals.NextAfter(0, mult, mc.r)
		mc.heap[i] = mergeNode(c.next, uint32(i))
	}
	heap4.Heapify(mc.heap)
}

// next emits the next job with its global identity, as populationSource
// does.
func (mc *refMergeCore) next() *Job {
	client := nodeClient(mc.heap[0])
	c := &mc.clients[client]
	mc.src.state = &c.rng
	g := &mc.cfg.gens[c.class]
	mc.job.ID = 0
	mc.job.Submit = c.next
	mc.job.Class = g.Class
	g.fillJob(&mc.job, mc.r, &mc.sc)
	c.next = g.Arrivals.NextAfter(c.next, c.mult, mc.r)
	_, mc.heap = heap4.Pop(mc.heap)
	mc.heap = heap4.Push(mc.heap, mergeNode(c.next, client))
	mc.seq++
	emitAs(&mc.job, mc.seq, mc.taskID)
	mc.taskID += len(mc.job.Tasks)
	return &mc.job
}

// sameJob reports whether two jobs are identical field by field, submit
// times compared bit for bit.
func sameJob(a, b *Job) bool {
	if a.ID != b.ID || math.Float64bits(float64(a.Submit)) != math.Float64bits(float64(b.Submit)) ||
		a.Class != b.Class || a.Deadline != b.Deadline || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		s, t := &a.Tasks[i], &b.Tasks[i]
		if s.ID != t.ID || s.JobID != t.JobID || s.CPUs != t.CPUs || s.Runtime != t.Runtime ||
			s.RuntimeEstimate != t.RuntimeEstimate || len(s.Deps) != len(t.Deps) {
			return false
		}
		for d := range s.Deps {
			if s.Deps[d] != t.Deps[d] {
				return false
			}
		}
	}
	return true
}

// TestPopulationMergeParity pins the radix-queue merge job by job against
// the heap merge across skews, mixes, arrival processes, client counts
// around the queue's chunk (128) and bucket (129) sizes.
func TestPopulationMergeParity(t *testing.T) {
	mixes := map[string][]ClassShare{
		"single": SingleClass(ClassGaming),
		"mixed":  testPopulation("none").Mix,
	}
	arrivals := []ArrivalProcess{
		PoissonArrivals{Rate: 0.5},
		WeibullArrivals{Scale: 2, K: 0.7},
		GammaArrivals{Rate: 0.5, Shape: 0.4},
		DiurnalArrivals{BaseRate: 0.5, Period: 600, Amplitude: 0.7},
		FlashcrowdArrivals{BaseRate: 0.5, StartAt: 200, Spike: 5, HalfLife: 60},
	}
	clientCounts := []int{1, 2, 127, 128, 129, 240, 70000}
	jobs := 1000
	if testing.Short() {
		clientCounts = clientCounts[:len(clientCounts)-1]
	}
	for _, skew := range []string{"none", "zipf", "lognormal"} {
		for _, mixName := range []string{"single", "mixed"} {
			for _, arr := range arrivals {
				for _, clients := range clientCounts {
					pop := Population{
						Clients: clients,
						Mix:     mixes[mixName],
						Arrival: arr,
						Skew:    Skew{Kind: skew},
						Seed:    int64(clients),
					}
					t.Run(fmt.Sprintf("%s/%s/%s/clients=%d", skew, mixName, arr, clients), func(t *testing.T) {
						cfg, err := pop.config()
						if err != nil {
							t.Fatal(err)
						}
						ref := newRefMergeCore(cfg, clients)
						src, err := pop.Source()
						if err != nil {
							t.Fatal(err)
						}
						defer src.Close()
						for j := 1; j <= jobs; j++ {
							want := ref.next()
							if got := src.Next(); !sameJob(want, got) {
								t.Fatalf("job %d differs:\n got %+v\nwant %+v", j, got, want)
							}
						}
					})
				}
			}
		}
	}
}
