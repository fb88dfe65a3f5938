// Package biblio reproduces the paper's bibliometric evidence (Figures 1–3)
// on a synthetic publication corpus. The real corpora — publisher databases
// for keyword and design-article counts, and confidential conference review
// data — are proprietary, so the generator is calibrated to the shapes the
// paper reports, and the analysis pipeline is exactly what would run on the
// real data.
package biblio

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
)

// Publication is one article in the corpus.
type Publication struct {
	Venue    string
	Year     int
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

// Corpus returns the synthetic corpus over the union of the Figure 1 and
// Figure 2 venues as a sequence, after validating cfg. Each range over it
// draws the corpus anew from cfg.Seed.
//
// The sequence yields one reused Publication, whose fields and Keywords the
// next draw overwrites: a caller that keeps a publication copies it and its
// Keywords. A publication without keywords has an empty Keywords.
func Corpus(cfg CorpusConfig) (iter.Seq[*Publication], error) {
	if cfg.StartYear > cfg.EndYear {
		return nil, fmt.Errorf("biblio: year range %d..%d", cfg.StartYear, cfg.EndYear)
	}
	if cfg.ArticlesPerVenueYear < 1 {
		return nil, fmt.Errorf("biblio: volume %d", cfg.ArticlesPerVenueYear)
	}
	venues := map[string]bool{}
	var venueList []string
	for _, v := range append(Figure1Venues(), Figure2Venues()...) {
		if !venues[v] {
			venues[v] = true
			venueList = append(venueList, v)
		}
	}
	return func(yield func(*Publication) bool) {
		r := rand.New(rand.NewSource(cfg.Seed))
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
		keywords := make([]string, 0, len(kw))
		var pub Publication
		for _, venue := range venueList {
			for year := max(cfg.StartYear, venueStart(venue)); year <= cfg.EndYear; year++ {
				// Volume grows mildly over time (the field expanded).
				volume := float64(cfg.ArticlesPerVenueYear) * (0.5 + float64(year-1980)*0.02)
				n := int(volume * (0.8 + 0.4*r.Float64()))
				share := designShare(year)
				for a := 0; a < n; a++ {
					isDesign := r.Float64() < share
					prob[design] = 0.14
					if isDesign {
						prob[design] = 0.95
					}
					keywords = keywords[:0]
					for i, k := range kw {
						if r.Float64() < prob[i] {
							keywords = append(keywords, k.Keyword)
						}
					}
					pub = Publication{
						Venue:    venue,
						Year:     year,
						Keywords: keywords,
						IsDesign: isDesign,
						Accepted: true,
					}
					if !yield(&pub) {
						return
					}
				}
			}
		}
	}, nil
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
