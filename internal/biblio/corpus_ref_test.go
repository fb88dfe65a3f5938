package biblio

import (
	"iter"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refCorpus is the corpus generator that Figures 1 and 2 folded over before
// they replayed its draws, kept as the reference the parity test compares
// against. It returns the corpus as a sequence after validating cfg; each
// range draws it anew from cfg.Seed and yields one reused Publication, whose
// fields and Keywords the next draw overwrites.
func refCorpus(cfg CorpusConfig) (iter.Seq[*Publication], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
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

// refFigure1 is Figure 1's count over a corpus sequence.
func refFigure1(corpus iter.Seq[*Publication]) []KeywordCount {
	venueSet := map[string]bool{}
	for _, v := range Figure1Venues() {
		venueSet[v] = true
	}
	counts := map[string]int{}
	for p := range corpus {
		if !venueSet[p.Venue] || p.Year < 2013 || p.Year > 2017 {
			continue
		}
		for _, k := range p.Keywords {
			counts[k]++
		}
	}
	out := make([]KeywordCount, 0, len(counts))
	for k, c := range counts {
		out = append(out, KeywordCount{Keyword: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Keyword < out[j].Keyword
	})
	return out
}

// refFigure2 is Figure 2's count over a corpus sequence.
func refFigure2(corpus iter.Seq[*Publication]) []BlockCount {
	venueSet := map[string]bool{}
	for _, v := range Figure2Venues() {
		venueSet[v] = true
	}
	cell := map[string]map[int]int{}
	for p := range corpus {
		if !venueSet[p.Venue] || !p.IsDesign || p.Year < 1980 {
			continue
		}
		block := 1980 + (p.Year-1980)/5*5
		if cell[p.Venue] == nil {
			cell[p.Venue] = map[int]int{}
		}
		cell[p.Venue][block]++
	}
	var out []BlockCount
	for _, v := range Figure2Venues() {
		blocks := cell[v]
		var starts []int
		for b := range blocks {
			starts = append(starts, b)
		}
		sort.Ints(starts)
		for _, b := range starts {
			out = append(out, BlockCount{Venue: v, BlockStart: b, Designs: blocks[b]})
		}
	}
	return out
}

// TestFigureCountsParity checks Figures 1 and 2, which replay the corpus's
// draws, against the same counts folded over refCorpus, and that both
// reject the same configurations. Besides the default config at seeds
// 0–49, it covers a corpus that ends before Figure 1's window, one that
// starts inside it, a one-article volume, years before every venue starts
// and after 2017.
func TestFigureCountsParity(t *testing.T) {
	cfgs := []CorpusConfig{
		{StartYear: 1980, EndYear: 2012, ArticlesPerVenueYear: 60, Seed: 3},
		{StartYear: 2015, EndYear: 2017, ArticlesPerVenueYear: 60, Seed: 4},
		{StartYear: 1980, EndYear: 2017, ArticlesPerVenueYear: 1, Seed: 5},
		{StartYear: 2003, EndYear: 2005, ArticlesPerVenueYear: 1, Seed: 7},
		{StartYear: 1950, EndYear: 2030, ArticlesPerVenueYear: 13, Seed: -3},
		{StartYear: 1950, EndYear: 1979, ArticlesPerVenueYear: 10},
		{StartYear: 2000, EndYear: 1990, ArticlesPerVenueYear: 10},
		{StartYear: 2000, EndYear: 2001},
	}
	for seed := int64(0); seed < 50; seed++ {
		cfg := DefaultCorpusConfig()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		corpus, refErr := refCorpus(cfg)
		fig1, err1 := Figure1(cfg)
		fig2, err2 := Figure2(cfg)
		if (err1 != nil) != (refErr != nil) || (err2 != nil) != (refErr != nil) {
			t.Fatalf("%+v: errors %v and %v, reference error %v", cfg, err1, err2, refErr)
		}
		if refErr != nil {
			continue
		}
		if want := refFigure1(corpus); !slices.Equal(fig1, want) {
			t.Fatalf("%+v: Figure 1 %v, reference %v", cfg, fig1, want)
		}
		if want := refFigure2(corpus); !slices.Equal(fig2, want) {
			t.Fatalf("%+v: Figure 2 %v, reference %v", cfg, fig2, want)
		}
	}
}

// scripted is a rand.Source that returns its values in turn.
type scripted struct{ vals []int64 }

func (s *scripted) Int63() int64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *scripted) Seed(int64) {}

// TestThresholdDrawParity checks that draw(src) < threshold(p) decides as
// rand.Rand.Float64() < p does, and consumes the same values, at the ends
// of the Int63 range: 2⁶³−513 is the largest value whose Float64 is below
// 1, and 2⁶³−512 and 2⁶³−1 round up to 1, so Float64 draws again.
func TestThresholdDrawParity(t *testing.T) {
	const top = 1<<63 - 1
	script := []int64{0, top - 512, top - 511, top, 1, top - 512, top, top - 511, 0}
	ps := []float64{0, 1e-300, 0.14, 0.5, 0.95, 1 - 0x1p-53, 1, 2}
	for _, p := range ps {
		want := &scripted{vals: append([]int64(nil), script...)}
		got := &scripted{vals: append([]int64(nil), script...)}
		r := rand.New(want)
		for len(want.vals) > 0 {
			w := r.Float64() < p
			if g := draw(got) < threshold(p); g != w {
				t.Fatalf("p=%v: draw decided %v, Float64 %v", p, g, w)
			}
			if len(got.vals) != len(want.vals) {
				t.Fatalf("p=%v: draw left %d values, Float64 %d", p, len(got.vals), len(want.vals))
			}
		}
	}
	// The volume draw is the Float64 value itself.
	for _, v := range []int64{0, 1, 1 << 40, top - 512} {
		want := rand.New(&scripted{vals: []int64{v}}).Float64()
		if got := draw(&scripted{vals: []int64{v}}) / (1 << 63); got != want {
			t.Fatalf("Int63 %d: draw gives %v, Float64 %v", v, got, want)
		}
	}
}
