package biblio

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refGenerate is the Generate that grew the corpus and each publication's
// Keywords by append, kept as the reference the parity test compares
// against.
func refGenerate(cfg CorpusConfig) ([]Publication, error) {
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
	kw := KeywordWeights()
	var corpus []Publication
	for _, venue := range venueList {
		start := venueStart(venue)
		for year := cfg.StartYear; year <= cfg.EndYear; year++ {
			if year < start {
				continue
			}
			// Volume grows mildly over time (the field expanded).
			vol := float64(cfg.ArticlesPerVenueYear) * (0.5 + float64(year-1980)*0.02)
			n := int(vol * (0.8 + 0.4*r.Float64()))
			for a := 0; a < n; a++ {
				pub := Publication{
					Venue:    venue,
					Year:     year,
					IsDesign: r.Float64() < designShare(year),
					Accepted: true,
				}
				for _, k := range kw {
					// Keyword presence probability scales with the reported
					// prevalence; "design" presence correlates with design
					// articles (0.95 for design articles, 0.14 otherwise —
					// calibrated so the aggregate matches the Figure 1 rank
					// of "design" just below "performance").
					p := k.Weight * 0.5
					if k.Keyword == "design" {
						if pub.IsDesign {
							p = 0.95
						} else {
							p = 0.14
						}
					}
					if r.Float64() < p {
						pub.Keywords = append(pub.Keywords, k.Keyword)
					}
				}
				corpus = append(corpus, pub)
			}
		}
	}
	return corpus, nil
}

func TestGenerateParity(t *testing.T) {
	cfgs := []CorpusConfig{
		DefaultCorpusConfig(),
		{StartYear: 1980, EndYear: 2017, ArticlesPerVenueYear: 60, Seed: 42},
		{StartYear: 2003, EndYear: 2005, ArticlesPerVenueYear: 1, Seed: 7},
		{StartYear: 1950, EndYear: 2030, ArticlesPerVenueYear: 13, Seed: -3},
	}
	for _, cfg := range cfgs {
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refGenerate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: corpus of %d publications differs from the reference's %d", cfg, len(got), len(want))
		}
	}
}

// TestKeywordsAppendCopies checks that the arena windows are capped: an
// append to one publication's keywords leaves its neighbours' intact.
func TestKeywordsAppendCopies(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.ArticlesPerVenueYear = 20
	corpus, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		corpus[i].Keywords = append(corpus[i].Keywords, "appended")
	}
	for i, p := range corpus {
		if got := p.Keywords[:len(p.Keywords)-1]; !slices.Equal(got, want[i].Keywords) {
			t.Fatalf("publication %d keywords %q after appends, want %q", i, got, want[i].Keywords)
		}
	}
}
