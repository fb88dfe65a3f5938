// Package biblio reproduces the paper's bibliometric evidence (Figures 1–3)
// on a synthetic publication corpus. The real corpora — publisher databases
// for keyword and design-article counts, and confidential conference review
// data — are proprietary, so the generator is calibrated to the shapes the
// paper reports, and the analysis pipeline is exactly what would run on the
// real data.
package biblio

import (
	"fmt"
	"math"
	"math/rand"
)

// Publication is one article in the corpus.
type Publication struct {
	Venue string
	Year  int
	// Keywords from Generate is a window into an arena shared with other
	// publications, capped at its length, so an append copies it.
	Keywords []string
	IsDesign bool
	Accepted bool
	// Merit, Quality, Topic are review scores in 1..4 (0 when unreviewed).
	Merit   int
	Quality int
	Topic   int
}

// Figure1Venues are the venues of the Figure 1 keyword analysis.
func Figure1Venues() []string {
	return []string{
		"CCPE", "FGCS", "ToIT", "TPDS", "IEEE IC", "TWeb", "ATC", "CCGRID",
		"Euro-Par", "Eurosys", "FAST", "HPDC", "ICDCS", "IPDPS", "ISC",
		"LISA", "Middleware", "NSDI", "OSDI", "P2P", "PODC", "SoCC", "SC", "SOSP",
	}
}

// Figure2Venues are the venues of the Figure 2 design-article count.
func Figure2Venues() []string {
	return []string{
		"CLUSTER", "OSDI", "ATC", "NSDI", "CLOUD", "HPDC",
		"ICDCS", "SC", "CCGrid", "FGCS", "JPDC", "TPDS",
	}
}

// KeywordWeights orders the Figure 1 keywords by their reported prevalence
// (performance most frequent, edge least).
func KeywordWeights() []struct {
	Keyword string
	Weight  float64
} {
	return []struct {
		Keyword string
		Weight  float64
	}{
		{"performance", 1.00},
		{"design", 0.80},
		{"efficiency", 0.55},
		{"big data", 0.45},
		{"scalability", 0.40},
		{"high performance", 0.33},
		{"scheduling", 0.28},
		{"benchmarking", 0.24},
		{"reliability", 0.20},
		{"grid", 0.17},
		{"cluster", 0.15},
		{"cloud", 0.13},
		{"security", 0.10},
		{"availability", 0.08},
		{"edge", 0.03},
	}
}

// CorpusConfig parameterizes corpus generation.
type CorpusConfig struct {
	// StartYear..EndYear inclusive.
	StartYear int
	EndYear   int
	// ArticlesPerVenueYear is the mean volume.
	ArticlesPerVenueYear int
	Seed                 int64
}

// DefaultCorpusConfig spans 1980-2017 at modest volume.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{StartYear: 1980, EndYear: 2017, ArticlesPerVenueYear: 60, Seed: 1}
}

// designShare models the Figure 2 finding: design articles accumulate slowly
// before 2000 and markedly faster after.
func designShare(year int) float64 {
	// Logistic ramp centered at 2003.
	return 0.05 + 0.30/(1+math.Exp(-float64(year-2003)/4))
}

// venueStart returns the first year a venue publishes (some venues started
// later, giving the censored data the paper mentions).
func venueStart(venue string) int {
	switch venue {
	case "NSDI", "CLOUD", "SoCC":
		return 2004
	case "HPDC", "ATC":
		return 1992
	case "CLUSTER", "CCGrid", "CCGRID":
		return 1999
	case "OSDI":
		return 1994
	default:
		return 1980
	}
}

// keywordChunk is the length of one keyword arena chunk of Generate.
const keywordChunk = 4096

// Generate builds the synthetic corpus over the union of the Figure 1 and
// Figure 2 venues.
//
// Keywords are stored in shared arenas: each publication's Keywords is a
// window into a chunk of keywordChunk strings, capped at its own length
// with a 3-index slice, so appending to it copies the window instead of
// overwriting the next publication's keywords. A publication without
// keywords has a nil Keywords.
func Generate(cfg CorpusConfig) ([]Publication, error) {
	if cfg.StartYear > cfg.EndYear {
		return nil, fmt.Errorf("biblio: year range %d..%d", cfg.StartYear, cfg.EndYear)
	}
	if cfg.ArticlesPerVenueYear < 1 {
		return nil, fmt.Errorf("biblio: volume %d", cfg.ArticlesPerVenueYear)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	venues := map[string]bool{}
	var venueList []string
	for _, v := range append(Figure1Venues(), Figure2Venues()...) {
		if !venues[v] {
			venues[v] = true
			venueList = append(venueList, v)
		}
	}
	// Volume grows mildly over time (the field expanded).
	volume := func(year int) float64 {
		return float64(cfg.ArticlesPerVenueYear) * (0.5 + float64(year-1980)*0.02)
	}
	// A venue-year draws at most int(volume·1.2) articles.
	bound := 0
	for _, venue := range venueList {
		for year := max(cfg.StartYear, venueStart(venue)); year <= cfg.EndYear; year++ {
			bound += max(0, int(volume(year)*1.2)+1)
		}
	}
	// Keyword presence probability scales with the reported prevalence;
	// "design" presence correlates with design articles (0.95 for design
	// articles, 0.14 otherwise — calibrated so the aggregate matches the
	// Figure 1 rank of "design" just below "performance").
	kw := KeywordWeights()
	prob := make([]float64, len(kw))
	var design int
	for i, k := range kw {
		prob[i] = k.Weight * 0.5
		if k.Keyword == "design" {
			design = i
		}
	}
	corpus := make([]Publication, 0, bound)
	var arena []string
	for _, venue := range venueList {
		for year := max(cfg.StartYear, venueStart(venue)); year <= cfg.EndYear; year++ {
			n := int(volume(year) * (0.8 + 0.4*r.Float64()))
			share := designShare(year)
			for a := 0; a < n; a++ {
				pub := Publication{
					Venue:    venue,
					Year:     year,
					IsDesign: r.Float64() < share,
					Accepted: true,
				}
				prob[design] = 0.14
				if pub.IsDesign {
					prob[design] = 0.95
				}
				if cap(arena)-len(arena) < len(kw) {
					arena = make([]string, 0, keywordChunk)
				}
				first := len(arena)
				for i, k := range kw {
					if r.Float64() < prob[i] {
						arena = append(arena, k.Keyword)
					}
				}
				if last := len(arena); last > first {
					pub.Keywords = arena[first:last:last]
				}
				corpus = append(corpus, pub)
			}
		}
	}
	return corpus, nil
}

// ReviewConfig parameterizes the Figure 3 review-score model.
type ReviewConfig struct {
	Submissions int
	// DesignShare is the fraction of design submissions.
	DesignShare float64
	// AcceptRate is the overall acceptance rate.
	AcceptRate float64
	Seed       int64
}

// DefaultReviewConfig mirrors a selective systems conference.
func DefaultReviewConfig() ReviewConfig {
	return ReviewConfig{Submissions: 600, DesignShare: 0.45, AcceptRate: 0.22, Seed: 1}
}

// GenerateReviews builds the review corpus for Figure 3. Calibration to the
// paper's findings: (1) design articles have a slightly better merit
// distribution (higher median/mean); (2) a significant share of design
// submissions still scores below 3 — professionals struggle to self-assess;
// (3) topic scores cluster high for everyone (the CfP steering effect).
func GenerateReviews(cfg ReviewConfig) ([]Publication, error) {
	if cfg.Submissions < 1 {
		return nil, fmt.Errorf("biblio: submissions %d", cfg.Submissions)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	score := func(mean, sd float64) int {
		v := int(math.Round(mean + sd*r.NormFloat64()))
		if v < 1 {
			v = 1
		}
		if v > 4 {
			v = 4
		}
		return v
	}
	var pubs []Publication
	for i := 0; i < cfg.Submissions; i++ {
		design := r.Float64() < cfg.DesignShare
		// Latent quality drives both scores and acceptance.
		latent := 2.1 + 0.6*r.NormFloat64()
		if design {
			latent += 0.2 // finding (1): slight distributional advantage
		}
		accepted := latent+0.3*r.NormFloat64() > 2.9 // ~= top quantile
		p := Publication{
			Venue:    "anonymized-conf",
			Year:     2016,
			IsDesign: design,
			Accepted: accepted,
			Merit:    score(latent, 0.5),
			Quality:  score(latent-0.1, 0.5),
			Topic:    score(3.3, 0.5), // finding (3): topics cluster high
		}
		pubs = append(pubs, p)
	}
	// Force the realized accept rate toward cfg.AcceptRate by flipping the
	// weakest accepts if needed (the PC has a quota).
	accepts := 0
	for _, p := range pubs {
		if p.Accepted {
			accepts++
		}
	}
	want := int(float64(cfg.Submissions) * cfg.AcceptRate)
	for i := range pubs {
		if accepts <= want {
			break
		}
		if pubs[i].Accepted && pubs[i].Merit <= 2 {
			pubs[i].Accepted = false
			accepts--
		}
	}
	return pubs, nil
}
