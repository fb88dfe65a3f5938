package p2p

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atlarge/internal/workload"
)

// runChurnSwarm executes a swarm with the given churn rate and returns
// (completions, aborts).
func runChurnSwarm(t testing.TB, churn float64, peers int, seed int64) (int, int) {
	t.Helper()
	cfg := DefaultSwarmConfig()
	cfg.Seed = seed
	cfg.FileSize = 50e6
	cfg.ChurnRate = churn
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr := workload.PoissonArrivals{Rate: 0.05}
	sw.ScheduleArrivals(arr.Times(peers, rand.New(rand.NewSource(seed))))
	if err := sw.Run(300000, 10); err != nil {
		t.Fatal(err)
	}
	return len(sw.Records()), sw.aborts
}

func TestChurnCausesAborts(t *testing.T) {
	// Typical ADSL download of 50MB takes ~400-1500s; a 1/600s abort clock
	// should remove a sizeable share of peers.
	done, aborts := runChurnSwarm(t, 1.0/600, 60, 3)
	if aborts == 0 {
		t.Fatal("no aborts under churn")
	}
	if done == 0 {
		t.Fatal("churn killed every download")
	}
	noChurnDone, noChurnAborts := runChurnSwarm(t, 0, 60, 3)
	if noChurnAborts != 0 {
		t.Errorf("aborts without churn: %d", noChurnAborts)
	}
	if done >= noChurnDone {
		t.Errorf("churn did not reduce completions: %d vs %d", done, noChurnDone)
	}
}

func TestChurnConservationProperty(t *testing.T) {
	// Property: completions + aborts never exceed scheduled peers, and the
	// swarm still terminates cleanly.
	f := func(seed int64, churnRaw uint8) bool {
		churn := float64(churnRaw%10) / 3000 // 0 .. ~3.3e-3 /s
		cfg := DefaultSwarmConfig()
		cfg.Seed = seed
		cfg.FileSize = 20e6
		cfg.ChurnRate = churn
		sw, err := NewSwarm(cfg)
		if err != nil {
			return false
		}
		peers := 20
		arr := workload.PoissonArrivals{Rate: 0.05}
		sw.ScheduleArrivals(arr.Times(peers, rand.New(rand.NewSource(seed))))
		if err := sw.Run(200000, 10); err != nil {
			return false
		}
		return len(sw.Records())+sw.aborts <= peers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestChurnSurvivorshipBias(t *testing.T) {
	// A measurement lesson in the spirit of the paper's bias meta-study:
	// under churn, slow downloads abort before completing, so the mean
	// duration *of survivors* is biased low compared to a churn-free swarm —
	// a naive "downloads got faster" reading would be wrong.
	mean := func(churn float64) float64 {
		cfg := DefaultSwarmConfig()
		cfg.Seed = 9
		cfg.FileSize = 50e6
		cfg.ChurnRate = churn
		sw, err := NewSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arr := workload.PoissonArrivals{Rate: 0.05}
		sw.ScheduleArrivals(arr.Times(60, rand.New(rand.NewSource(9))))
		if err := sw.Run(300000, 10); err != nil {
			t.Fatal(err)
		}
		recs := sw.Records()
		if len(recs) == 0 {
			t.Fatal("no completions")
		}
		sum := 0.0
		for _, r := range recs {
			sum += r.Duration
		}
		return sum / float64(len(recs))
	}
	quiet := mean(0)
	churned := mean(1.0 / 400)
	if churned >= quiet {
		t.Errorf("survivorship bias absent: churned survivor mean %v not below churn-free %v", churned, quiet)
	}
}
