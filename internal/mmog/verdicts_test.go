package mmog

import "testing"

// TestTable6Verdicts checks the paper's Table 6 scalability verdict over
// seeds 0-19 at the budget RunTable6 uses: at 4 and at 16 servers, the
// Area-of-Simulation technique supports more players than static zoning, and
// Mirror offloading supports more than AoS, in every seed.
func TestTable6Verdicts(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		max := map[int]map[string]int{}
		for _, r := range RunScalabilityStudy([]int{4, 16}, 3000, seed) {
			if max[r.Servers] == nil {
				max[r.Servers] = map[string]int{}
			}
			max[r.Servers][r.Technique] = r.MaxPlayers
		}
		for _, servers := range []int{4, 16} {
			m := max[servers]
			zones, aos, mirror := m["zones"], m["area-of-simulation"], m["mirror"]
			if !(zones < aos && aos < mirror) {
				t.Errorf("seed %d servers %d: want zones < AoS < mirror, got %d, %d, %d",
					seed, servers, zones, aos, mirror)
			}
		}
	}
}
