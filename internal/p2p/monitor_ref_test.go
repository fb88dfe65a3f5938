package p2p

import (
	"fmt"
	"math/rand"
	"testing"
)

// refScrape is Monitor.Scrape as it was before the per-content state moved
// into one map: a swarm counter map, a format-set map per content, and a
// copied tracker sample. It is kept as the reference the parity test
// compares against.
func refScrape(m Monitor, eco *Ecosystem) (*MonitorReport, error) {
	if m.SampleFraction <= 0 || m.SampleFraction > 1 {
		return nil, fmt.Errorf("p2p: sample fraction %v", m.SampleFraction)
	}
	r := rand.New(rand.NewSource(m.Seed))
	idx := r.Perm(len(eco.Trackers))
	n := int(float64(len(eco.Trackers)) * m.SampleFraction)
	if n < 1 {
		n = 1
	}
	rep := &MonitorReport{TrackersScraped: n}
	contentSwarms := make(map[int]int)
	contentFormats := make(map[int]map[string]bool)

	var popByTracker []float64
	sample := make([]Tracker, 0, n)
	for _, i := range idx[:n] {
		tr := eco.Trackers[i]
		sample = append(sample, tr)
		tot := 0
		for _, sw := range tr.Swarms {
			tot += sw.Seeds + sw.Leechers
		}
		if len(tr.Swarms) > 0 {
			popByTracker = append(popByTracker, float64(tot)/float64(len(tr.Swarms)))
		}
	}
	medianPop := median(popByTracker)

	for _, tr := range sample {
		avg := 0.0
		if len(tr.Swarms) > 0 {
			tot := 0
			for _, sw := range tr.Swarms {
				tot += sw.Seeds + sw.Leechers
			}
			avg = float64(tot) / float64(len(tr.Swarms))
		}
		if m.FilterSpam && medianPop > 0 && avg > 10*medianPop {
			continue
		}
		for _, sw := range tr.Swarms {
			size := sw.Seeds + sw.Leechers
			rep.SwarmsSeen++
			rep.PeersObserved += size
			if tr.Spam {
				rep.SpamPeers += size
			}
			if size >= giantThreshold {
				rep.GiantSwarms++
			}
			contentSwarms[sw.ContentID]++
			if contentFormats[sw.ContentID] == nil {
				contentFormats[sw.ContentID] = make(map[string]bool)
			}
			contentFormats[sw.ContentID][sw.Format] = true
		}
	}

	rep.PeersEstimate = int(float64(rep.PeersObserved) / m.SampleFraction)
	if eco.TruePeers > 0 {
		rep.Bias = (float64(rep.PeersEstimate) - float64(eco.TruePeers)) / float64(eco.TruePeers)
	}
	rep.ContentsSeen = len(contentSwarms)
	totalAlias := 0
	for c, formats := range contentFormats {
		if len(formats) >= 2 {
			rep.AliasedContents++
		}
		totalAlias += contentSwarms[c]
	}
	if rep.ContentsSeen > 0 {
		rep.MeanAliasFactor = float64(totalAlias) / float64(rep.ContentsSeen)
	}
	return rep, nil
}

// TestMonitorScrapeParity checks Scrape against the reference over seeds
// 0–19 (ecosystem and monitor alike) under the three Table 5 monitor
// configurations.
func TestMonitorScrapeParity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := DefaultEcosystemConfig()
		cfg.Seed = seed
		eco := GenerateEcosystem(cfg)
		for _, m := range []Monitor{
			{SampleFraction: 0.5, Seed: seed},
			{SampleFraction: 0.25, Seed: seed},
			{SampleFraction: 0.25, FilterSpam: true, Seed: seed},
		} {
			got, err := m.Scrape(eco)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refScrape(m, eco)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("seed %d, %+v: %+v, reference %+v", seed, m, *got, *want)
			}
		}
	}
}
