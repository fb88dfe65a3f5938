package biblio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refGenerate is the corpus generator that grew the corpus and each
// publication's Keywords by append, kept as the reference the parity test
// compares against.
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

// collect materialises a corpus, copying each publication out of the
// sequence's reused one. A publication without keywords gets a nil Keywords,
// as refGenerate gives it.
func collect(cfg CorpusConfig) ([]Publication, error) {
	corpus, err := Corpus(cfg)
	if err != nil {
		return nil, err
	}
	var out []Publication
	for p := range corpus {
		c := *p
		c.Keywords = nil
		if len(p.Keywords) > 0 {
			c.Keywords = slices.Clone(p.Keywords)
		}
		out = append(out, c)
	}
	return out, nil
}

// TestGenerateParity checks the streamed corpus against refGenerate
// publication by publication, keywords included, and that both reject the
// same configurations.
func TestGenerateParity(t *testing.T) {
	cfgs := []CorpusConfig{
		{StartYear: 1980, EndYear: 2017, ArticlesPerVenueYear: 60, Seed: 42},
		{StartYear: 2003, EndYear: 2005, ArticlesPerVenueYear: 1, Seed: 7},
		{StartYear: 1950, EndYear: 2030, ArticlesPerVenueYear: 13, Seed: -3},
		{StartYear: 2000, EndYear: 1990, ArticlesPerVenueYear: 10},
		{StartYear: 2000, EndYear: 2001},
	}
	for seed := int64(0); seed < 20; seed++ {
		cfg := DefaultCorpusConfig()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		corpus, err := Corpus(cfg)
		want, refErr := refGenerate(cfg)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%+v: error %v, reference error %v", cfg, err, refErr)
		}
		if err != nil {
			continue
		}
		i := 0
		for p := range corpus {
			if i == len(want) {
				t.Fatalf("%+v: corpus longer than the reference's %d publications", cfg, len(want))
			}
			if !samePublication(p, &want[i]) {
				t.Fatalf("%+v: publication %d is %+v, want %+v", cfg, i, *p, want[i])
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("%+v: corpus of %d publications, the reference's %d", cfg, i, len(want))
		}
	}
}

// samePublication reports whether a and b are equal field by field, taking
// an empty and a nil Keywords as equal.
func samePublication(a, b *Publication) bool {
	return a.Venue == b.Venue && a.Year == b.Year && a.IsDesign == b.IsDesign &&
		a.Accepted == b.Accepted && a.Merit == b.Merit && a.Quality == b.Quality &&
		a.Topic == b.Topic && slices.Equal(a.Keywords, b.Keywords)
}

// TestCorpusStopsEarly checks that a range which breaks off sees the
// corpus's first publications, and that a second range draws it anew.
func TestCorpusStopsEarly(t *testing.T) {
	cfg := DefaultCorpusConfig()
	want, err := refGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := Corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 100} {
		i := 0
		for p := range corpus {
			if i == k {
				break
			}
			if !samePublication(p, &want[i]) {
				t.Fatalf("range %d: publication %d is %+v, want %+v", k, i, *p, want[i])
			}
			i++
		}
		if i != k {
			t.Fatalf("range stopping at %d saw %d publications", k, i)
		}
	}
}
