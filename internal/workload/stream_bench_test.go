package workload

import (
	"fmt"
	"testing"
)

// BenchmarkPopulationStream measures steady-state job emission from a
// population source: the per-job merge cost is amortised O(key bits) in the
// monotone radix queue, so it must stay near flat and at 0 allocs
// regardless of population size. Source construction (the O(clients) part)
// happens outside the timer.
func BenchmarkPopulationStream(b *testing.B) {
	for _, clients := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			pop := &Population{
				Clients: clients,
				Mix:     SingleClass(ClassSynthetic),
				Skew:    Skew{Kind: "zipf"},
				Seed:    1,
			}
			src, err := pop.Source()
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			// Warm the scratch buffers so the measured loop is steady state.
			for i := 0; i < 100; i++ {
				src.Next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if src.Next() == nil {
					b.Fatal("stream ran dry")
				}
			}
		})
	}
}
