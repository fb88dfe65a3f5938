package p2p

import (
	"fmt"
	"math/rand"
	"sort"
)

// SwarmInfo is a tracker's view of one swarm at scrape time.
type SwarmInfo struct {
	SwarmID   int
	ContentID int // aliased media: several swarms can carry the same content
	Format    string
	Seeds     int
	Leechers  int
}

// Tracker serves scrape data for the swarms it coordinates. Spam trackers
// (inserted by unidentified entities, per the 2010 BTWorld study) report
// fabricated swarms with inflated populations.
type Tracker struct {
	ID     int
	Spam   bool
	Swarms []SwarmInfo
}

// Ecosystem is the ground-truth global BitTorrent ecosystem: many trackers,
// many swarms, content aliased across formats.
type Ecosystem struct {
	Trackers []Tracker
	// TruePeers is the ground-truth number of distinct real peers.
	TruePeers int
	// TrueContents is the number of distinct content items.
	TrueContents int
}

// EcosystemConfig parameterizes ecosystem generation.
type EcosystemConfig struct {
	Trackers     int
	SpamFraction float64
	// SwarmsPerTracker is the mean number of swarms per tracker.
	SwarmsPerTracker int
	// Contents is the number of distinct content items; swarm popularity is
	// Zipf over contents.
	Contents int
	// AliasFormats lists the formats content may be released in; each
	// content item appears in 1..len(AliasFormats) swarms.
	AliasFormats []string
	// MeanSwarmSize scales swarm populations.
	MeanSwarmSize int
	Seed          int64
}

// DefaultEcosystemConfig mirrors the scale ratios of the BTWorld study
// (hundreds of trackers, many swarms, giant-swarm skew), shrunk to test
// scale.
func DefaultEcosystemConfig() EcosystemConfig {
	return EcosystemConfig{
		Trackers:         120,
		SpamFraction:     0.08,
		SwarmsPerTracker: 40,
		Contents:         800,
		AliasFormats:     []string{"avi", "mkv", "x264", "dvdrip"},
		MeanSwarmSize:    120,
		Seed:             1,
	}
}

// GenerateEcosystem builds a synthetic global ecosystem.
func GenerateEcosystem(cfg EcosystemConfig) *Ecosystem {
	eco := &Ecosystem{TrueContents: cfg.Contents}
	eco.TruePeers = drawEcosystem(cfg,
		func(id int, spam bool, n int) {
			tr := Tracker{ID: id, Spam: spam}
			if n > 0 {
				tr.Swarms = make([]SwarmInfo, 0, n)
			}
			eco.Trackers = append(eco.Trackers, tr)
		},
		func(sw SwarmInfo) {
			tr := &eco.Trackers[len(eco.Trackers)-1]
			tr.Swarms = append(tr.Swarms, sw)
		})
	return eco
}

// drawEcosystem is the one draw loop of cfg's ecosystem. Before drawing a
// tracker's swarms it calls tracker, unless nil, with the tracker's ID, spam
// flag and swarm count n; then it calls swarm with each of the n swarms as
// the tracker reports it. It returns the ground-truth number of real peers.
func drawEcosystem(cfg EcosystemConfig, tracker func(id int, spam bool, n int), swarm func(SwarmInfo)) (truePeers int) {
	r := rand.New(rand.NewSource(cfg.Seed))
	swarmID := 0
	for t := 0; t < cfg.Trackers; t++ {
		spam := r.Float64() < cfg.SpamFraction
		n := cfg.SwarmsPerTracker/2 + r.Intn(cfg.SwarmsPerTracker+1)
		if tracker != nil {
			tracker(t+1, spam, n)
		}
		for s := 0; s < n; s++ {
			swarmID++
			content := zipfContent(r, cfg.Contents)
			format := cfg.AliasFormats[r.Intn(len(cfg.AliasFormats))]
			// Popularity: heavy-tailed swarm sizes; rank-1 content forms
			// giant swarms (hundreds of thousands in the study).
			base := float64(cfg.MeanSwarmSize) / float64(content) * float64(cfg.Contents) / 10
			size := int(base * (0.5 + r.Float64()))
			if size < 2 {
				size = 2
			}
			seeds := size / 3
			leechers := size - seeds
			if spam {
				// Spam trackers fabricate inflated numbers.
				seeds *= 50
				leechers *= 50
			}
			swarm(SwarmInfo{
				SwarmID:   swarmID,
				ContentID: content,
				Format:    format,
				Seeds:     seeds,
				Leechers:  leechers,
			})
			if !spam {
				truePeers += size
			}
		}
	}
	return truePeers
}

// zipfContent samples a content rank in [1,n] with exponent ~1.
func zipfContent(r *rand.Rand, n int) int {
	// Inverse-power sampling without precomputation: rejection on rank.
	for {
		u := r.Float64()
		rank := int(float64(n)*u*u) + 1 // quadratic skew toward low ranks
		if rank >= 1 && rank <= n {
			return rank
		}
	}
}

// MonitorReport is the output of one BTWorld-style scrape campaign.
type MonitorReport struct {
	TrackersScraped int
	SwarmsSeen      int
	PeersObserved   int
	// PeersEstimate extrapolates the full ecosystem from the scraped sample.
	PeersEstimate int
	// SpamPeers counts observed peers that came from spam trackers.
	SpamPeers int
	// GiantSwarms counts swarms above giantThreshold peers.
	GiantSwarms int
	// Bias is (PeersEstimate - TruePeers) / TruePeers; the meta-study of
	// sampling bias (Zhang et al. Euro-Par'10).
	Bias float64
	// ContentsSeen is the number of distinct content IDs observed.
	ContentsSeen int
	// AliasedContents counts contents observed in 2+ formats.
	AliasedContents int
	// MeanAliasFactor is the mean number of swarms per observed content.
	MeanAliasFactor float64
}

const giantThreshold = 5000

// Monitor scrapes a fraction of trackers (selected deterministically by
// seed) and produces the measurement report, optionally filtering spam.
type Monitor struct {
	// SampleFraction is the fraction of trackers scraped.
	SampleFraction float64
	// FilterSpam drops trackers whose reported populations are implausible
	// (the bias-correction technique of the meta-study).
	FilterSpam bool
	Seed       int64
}

// Scrape runs the campaign against the ecosystem.
func (m Monitor) Scrape(eco *Ecosystem) (*MonitorReport, error) {
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
	sample := idx[:n]

	// Median swarm population across the sample, for spam detection.
	var popByTracker []float64
	for _, i := range sample {
		if avg, ok := meanSwarmPop(&eco.Trackers[i]); ok {
			popByTracker = append(popByTracker, avg)
		}
	}
	medianPop := median(popByTracker)

	// contents maps each content ID seen to its swarm count and the first
	// format it was seen in; aliased marks a second, different format.
	type contentSeen struct {
		swarms  int
		format  string
		aliased bool
	}
	contents := make(map[int]contentSeen, eco.TrueContents)
	for _, i := range sample {
		tr := &eco.Trackers[i]
		if m.FilterSpam && medianPop > 0 {
			if avg, _ := meanSwarmPop(tr); avg > 10*medianPop {
				continue // implausibly inflated: classified as spam
			}
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
			c, ok := contents[sw.ContentID]
			if !ok {
				c.format = sw.Format
			} else if sw.Format != c.format {
				c.aliased = true
			}
			c.swarms++
			contents[sw.ContentID] = c
		}
	}

	rep.PeersEstimate = int(float64(rep.PeersObserved) / m.SampleFraction)
	if eco.TruePeers > 0 {
		rep.Bias = (float64(rep.PeersEstimate) - float64(eco.TruePeers)) / float64(eco.TruePeers)
	}
	rep.ContentsSeen = len(contents)
	totalAlias := 0
	for _, c := range contents {
		if c.aliased {
			rep.AliasedContents++
		}
		totalAlias += c.swarms
	}
	if rep.ContentsSeen > 0 {
		rep.MeanAliasFactor = float64(totalAlias) / float64(rep.ContentsSeen)
	}
	return rep, nil
}

// meanSwarmPop returns the mean reported population of tr's swarms; ok is
// false for a tracker without swarms.
func meanSwarmPop(tr *Tracker) (avg float64, ok bool) {
	if len(tr.Swarms) == 0 {
		return 0, false
	}
	tot := 0
	for _, sw := range tr.Swarms {
		tot += sw.Seeds + sw.Leechers
	}
	return float64(tot) / float64(len(tr.Swarms)), true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
