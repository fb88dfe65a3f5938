package p2p

import "testing"

// verdictSeeds is the seed range the Table 5 paper verdicts must hold over.
const verdictSeeds = 20

// TestTable5Verdicts checks the paper's qualitative Table 5 findings over
// seeds 0-19 with the study sizes RunTable5 uses: 2fast speeds up ADSL
// downloads in every seed, a flash crowd is detected in every seed, and the
// crowd degrades download time in most seeds. The degradation is a ratio of
// two small-sample means, so it is checked as a share: seed 10 measures
// 0.90, a crowd that happened to find the swarm well seeded.
func TestTable5Verdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("20 seeds of the flash-crowd and 2fast studies")
	}
	degraded := 0
	for seed := int64(0); seed < verdictSeeds; seed++ {
		tf, err := RunTwoFastStudy(40, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if tf.Speedup <= 1 {
			t.Errorf("seed %d: 2fast speedup %.3f, want > 1", seed, tf.Speedup)
		}
		fc, err := RunFlashcrowdStudy(250, seed)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Detected < 1 {
			t.Errorf("seed %d: no flash crowd detected", seed)
		}
		if fc.Degradation > 1 {
			degraded++
		}
		t.Logf("seed %d: 2fast %.3f, crowds %d, degradation %.3f", seed, tf.Speedup, fc.Detected, fc.Degradation)
	}
	if degraded < verdictSeeds*9/10 {
		t.Errorf("flash crowd degraded downloads in %d/%d seeds, want >= %d", degraded, verdictSeeds, verdictSeeds*9/10)
	}
}
