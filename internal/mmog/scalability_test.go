package mmog

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// scalabilityFingerprint is the FNV-64a fold of RunScalabilityStudy([]int{4,
// 16}, 3000, seed) for seeds 0-39, captured before the scalability search
// reused one indexed world. Every row of every seed must stay identical.
const scalabilityFingerprint = 0xbe17e8933a99a7d0

func TestScalabilityFingerprint(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(0); seed < 40; seed++ {
		for _, r := range RunScalabilityStudy([]int{4, 16}, 3000, seed) {
			fmt.Fprintf(h, "%d %s %d %d\n", seed, r.Technique, r.Servers, r.MaxPlayers)
		}
	}
	if got := h.Sum64(); got != scalabilityFingerprint {
		t.Errorf("scalability fingerprint %#x, want %#x", got, uint64(scalabilityFingerprint))
	}
}

// TestIndexedLoadsParity checks the scalability search's indexed AoS and
// Mirror loads against Loads on a freshly generated world, bit for bit,
// at every size a search probes and then at random sizes in random order.
// Bisection probes sizes below ones already indexed, so the index must
// answer any prefix, not only its latest size.
func TestIndexedLoadsParity(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	var scratch PartitionScratch
	for c := 0; c < 20; c++ {
		seed := r.Int63n(1 << 20)
		servers := 1 + r.Intn(32)
		var p Partitioner = AoSPartitioner{}
		if c%2 == 1 {
			p = MirrorPartitioner{OffloadFraction: r.Float64()}
		}
		budget := 200 + r.Float64()*2800
		world := newScalabilityWorld(seed)
		largest, shrunk := 0, false
		check := func(n int) []float64 {
			if n < largest {
				shrunk = true
			}
			largest = max(largest, n)
			cfg := DefaultWorldConfig(n)
			cfg.Seed = seed
			want := p.Loads(GenerateWorld(cfg), servers, &scratch)
			got := world.loads(p, n, servers)
			if len(got) != len(want) {
				t.Fatalf("%s seed=%d servers=%d n=%d: %d loads, want %d", p.Name(), seed, servers, n, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s seed=%d servers=%d n=%d: load[%d] %v, want %v", p.Name(), seed, servers, n, i, got[i], want[i])
				}
			}
			return want
		}
		maxFitting(func(n int) bool { return maxOf(check(n)) <= budget })
		for i := 0; i < 5; i++ {
			check(r.Intn(largest + 1))
		}
		if !shrunk {
			t.Fatalf("%s seed=%d: no probe below an indexed size", p.Name(), seed)
		}
	}
}
