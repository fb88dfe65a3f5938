package atlarge

// Ablation benchmarks probe the design choices behind the headline results:
// the 2fast group size, VM boot failures under autoscaling, and the server
// count behind the Area-of-Simulation advantage. The runtime-estimate noise
// ablation behind Table 9's big-data regret lives in internal/portfolio.

import (
	"math/rand"
	"testing"

	"atlarge/internal/autoscale"
	"atlarge/internal/mmog"
	"atlarge/internal/p2p"
	"atlarge/internal/workload"
)

// BenchmarkAblationTwoFastGroupSize sweeps the 2fast group size: more
// helpers add dedicated upload, with diminishing returns once the
// collector's download link saturates.
func BenchmarkAblationTwoFastGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, size := range []int{2, 4, 8} {
			res, err := p2p.RunTwoFastStudy(20, size, 5)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("group-size=%d plain=%.0fs 2fast=%.0fs speedup=%.2fx",
					size, res.PlainMeanS, res.TwoFastMeanS, res.Speedup)
			}
		}
	}
}

// BenchmarkAblationBootFailures sweeps VM boot-failure rates in the
// autoscaling engine: reactive provisioning recovers, at growing response
// cost.
func BenchmarkAblationBootFailures(b *testing.B) {
	tr := workload.StandardGenerator(workload.ClassScientific).Generate(12, rand.New(rand.NewSource(4)))
	for i := 0; i < b.N; i++ {
		for _, rate := range []float64{0, 0.25, 0.5} {
			cfg := autoscale.DefaultVitroConfig()
			cfg.Seed = 4
			cfg.BootFailureRate = rate
			st, err := autoscale.Run(cfg, autoscale.React{}, tr)
			if err != nil {
				b.Fatal(err)
			}
			m := autoscale.ComputeMetrics(st)
			if i == 0 {
				b.Logf("boot-failure-rate=%.2f jobs=%d mean-response=%.0fs accuracy-under=%.4f",
					rate, st.JobsDone, m.MeanResponse, m.AccuracyUnder)
			}
		}
	}
}

// BenchmarkAblationAoSServers sweeps server counts for the AoS-vs-zones
// advantage: static zoning cannot use extra servers when load concentrates
// in one hot zone, AoS can.
func BenchmarkAblationAoSServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := mmog.RunScalabilityStudy([]int{4, 16, 64}, 3000, 1)
		for j := 0; j+1 < len(rows); j += 3 {
			// Each server count gives zones, AoS and Mirror rows, in that order.
			zones, aos := rows[j], rows[j+1]
			gain := 0.0
			if zones.MaxPlayers > 0 {
				gain = float64(aos.MaxPlayers) / float64(zones.MaxPlayers)
			}
			if i == 0 {
				b.Logf("servers=%-3d zones=%-6d aos=%-6d gain=%.1fx", zones.Servers, zones.MaxPlayers, aos.MaxPlayers, gain)
			}
		}
	}
}
