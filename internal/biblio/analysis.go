package biblio

import (
	"fmt"
	"sort"

	"atlarge/internal/stats"
)

// KeywordCount is one Figure 1 bar.
type KeywordCount struct {
	Keyword string
	Count   int
}

// Figure1 counts keyword presence in the Figure 1 venues over 2013–2017
// (the paper's "start of 2013 to start of 2018" window) in the corpus of
// cfg, most frequent first; a keyword no article lists has no bar.
func Figure1(cfg CorpusConfig) ([]KeywordCount, error) {
	c, err := countCorpus(cfg)
	if err != nil {
		return nil, err
	}
	var out []KeywordCount
	for i, k := range KeywordWeights() {
		if n := c.keywords[i]; n > 0 {
			out = append(out, KeywordCount{Keyword: k.Keyword, Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Keyword < out[j].Keyword
	})
	return out, nil
}

// BlockCount is one (venue, 5-year block) cell of Figure 2.
type BlockCount struct {
	Venue      string
	BlockStart int
	Designs    int
}

// Figure2 counts design articles per venue per 5-year block since 1980 in
// the corpus of cfg, venue by venue in Figure2Venues order; a block without
// design articles has no cell.
func Figure2(cfg CorpusConfig) ([]BlockCount, error) {
	c, err := countCorpus(cfg)
	if err != nil {
		return nil, err
	}
	var out []BlockCount
	for v, venue := range Figure2Venues() {
		for b, n := range c.designs[v] {
			if n > 0 {
				out = append(out, BlockCount{Venue: venue, BlockStart: 1980 + 5*b, Designs: n})
			}
		}
	}
	return out, nil
}

// Figure2Trend reports, per venue, whether design-article counts in the
// post-2000 blocks exceed the pre-2000 blocks (the paper's "marked increase
// since 2000").
func Figure2Trend(rows []BlockCount) map[string]bool {
	pre := map[string]int{}
	post := map[string]int{}
	blocksPre := map[string]int{}
	blocksPost := map[string]int{}
	for _, r := range rows {
		if r.BlockStart < 2000 {
			pre[r.Venue] += r.Designs
			blocksPre[r.Venue]++
		} else {
			post[r.Venue] += r.Designs
			blocksPost[r.Venue]++
		}
	}
	out := map[string]bool{}
	for v := range post {
		preAvg := 0.0
		if blocksPre[v] > 0 {
			preAvg = float64(pre[v]) / float64(blocksPre[v])
		}
		postAvg := 0.0
		if blocksPost[v] > 0 {
			postAvg = float64(post[v]) / float64(blocksPost[v])
		}
		out[v] = postAvg > preAvg
	}
	return out
}

// Figure3Category labels one violin of Figure 3.
type Figure3Category struct {
	Name   string
	Filter func(Publication) bool
}

// Figure3Categories returns the seven article groups of Figure 3.
func Figure3Categories() []Figure3Category {
	return []Figure3Category{
		{"All", func(Publication) bool { return true }},
		{"Design", func(p Publication) bool { return p.IsDesign }},
		{"Design accepted", func(p Publication) bool { return p.IsDesign && p.Accepted }},
		{"Design rejected", func(p Publication) bool { return p.IsDesign && !p.Accepted }},
		{"Non-design", func(p Publication) bool { return !p.IsDesign }},
		{"Non-design accepted", func(p Publication) bool { return !p.IsDesign && p.Accepted }},
		{"Non-design rejected", func(p Publication) bool { return !p.IsDesign && !p.Accepted }},
	}
}

// Aspect selects a review score.
type Aspect string

// The three scored aspects.
const (
	AspectMerit   Aspect = "merit"
	AspectQuality Aspect = "quality"
	AspectTopic   Aspect = "topic"
)

// scoreOf extracts the aspect score.
func scoreOf(p Publication, a Aspect) float64 {
	switch a {
	case AspectMerit:
		return float64(p.Merit)
	case AspectQuality:
		return float64(p.Quality)
	case AspectTopic:
		return float64(p.Topic)
	default:
		return 0
	}
}

// Figure3 computes the violin summary for every (category, aspect) pair.
func Figure3(reviews []Publication) (map[string]map[Aspect]stats.Violin, error) {
	out := make(map[string]map[Aspect]stats.Violin)
	for _, cat := range Figure3Categories() {
		out[cat.Name] = make(map[Aspect]stats.Violin)
		for _, aspect := range []Aspect{AspectMerit, AspectQuality, AspectTopic} {
			var xs []float64
			for _, p := range reviews {
				if cat.Filter(p) {
					xs = append(xs, scoreOf(p, aspect))
				}
			}
			if len(xs) == 0 {
				return nil, fmt.Errorf("biblio: category %q/%s empty", cat.Name, aspect)
			}
			v, err := stats.NewViolin(cat.Name, xs)
			if err != nil {
				return nil, fmt.Errorf("biblio: %q/%s: %w", cat.Name, aspect, err)
			}
			out[cat.Name][aspect] = v
		}
	}
	return out, nil
}

// Figure3Findings verifies the paper's two findings over computed violins:
// (1) design merit beats non-design merit on median and mean; (2) a
// significant share of design submissions score below 3 on merit.
type Figure3Findings struct {
	DesignMeritMedian    float64
	NonDesignMeritMedian float64
	DesignMeritMean      float64
	NonDesignMeritMean   float64
	DesignBelow3Pct      float64
	TopicMedian          float64
}

// AnalyzeFigure3 extracts the findings.
func AnalyzeFigure3(reviews []Publication, violins map[string]map[Aspect]stats.Violin) Figure3Findings {
	f := Figure3Findings{
		DesignMeritMedian:    violins["Design"][AspectMerit].Median,
		NonDesignMeritMedian: violins["Non-design"][AspectMerit].Median,
		DesignMeritMean:      violins["Design"][AspectMerit].Mean,
		NonDesignMeritMean:   violins["Non-design"][AspectMerit].Mean,
		TopicMedian:          violins["All"][AspectTopic].Median,
	}
	design, below := 0, 0
	for _, p := range reviews {
		if p.IsDesign {
			design++
			if p.Merit < 3 {
				below++
			}
		}
	}
	if design > 0 {
		f.DesignBelow3Pct = 100 * float64(below) / float64(design)
	}
	return f
}
