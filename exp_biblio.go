package atlarge

import (
	"context"
	"sort"

	"atlarge/internal/biblio"
)

func init() {
	defaultRegistry.MustRegister(Experiment{
		ID:    "fig1",
		Title: "Figure 1: keyword presence in top systems venues (2013-2018)",
		Tags:  []string{"figure", "biblio", "fast"},
		Order: 10,
		Run:   runFig1,
	})
	defaultRegistry.MustRegister(Experiment{
		ID:    "fig2",
		Title: "Figure 2: design articles per venue per 5-year block since 1980",
		Tags:  []string{"figure", "biblio", "fast"},
		Order: 20,
		Run:   runFig2,
	})
	defaultRegistry.MustRegister(Experiment{
		ID:    "fig3",
		Title: "Figure 3: violin summaries of review scores (merit/quality/topic)",
		Tags:  []string{"figure", "biblio", "fast"},
		Order: 30,
		Run:   runFig3,
	})
}

func runFig1(_ context.Context, seed int64) (*Report, error) {
	cfg := biblio.DefaultCorpusConfig()
	cfg.Seed = seed
	corpus, err := biblio.Corpus(cfg)
	if err != nil {
		return nil, err
	}
	rep := NewReport("fig1", "Figure 1: keyword presence in top systems venues (2013-2018)")
	t := rep.AddTable("keywords", "keyword", "articles")
	total := 0
	for _, kc := range biblio.Figure1(corpus) {
		t.AddRow(Label(kc.Keyword), Count(kc.Count))
		total += kc.Count
	}
	rep.AddMetric(Metric{Name: "keyword_articles_total", Value: float64(total), HigherBetter: true})
	return rep, nil
}

func runFig2(_ context.Context, seed int64) (*Report, error) {
	cfg := biblio.DefaultCorpusConfig()
	cfg.Seed = seed
	corpus, err := biblio.Corpus(cfg)
	if err != nil {
		return nil, err
	}
	rep := NewReport("fig2", "Figure 2: design articles per venue per 5-year block since 1980")
	rows := biblio.Figure2(corpus)
	byVenue := map[string][]biblio.BlockCount{}
	var venues []string
	for _, r := range rows {
		if _, ok := byVenue[r.Venue]; !ok {
			venues = append(venues, r.Venue)
		}
		byVenue[r.Venue] = append(byVenue[r.Venue], r)
	}
	trend := biblio.Figure2Trend(rows)
	t := rep.AddTable("venues", "venue", "designs_total", "post_2000_increase")
	grandTotal, increasing := 0, 0
	for _, v := range venues {
		s := &Series{Name: v}
		total := 0
		for _, b := range byVenue[v] {
			s.X = append(s.X, float64(b.BlockStart))
			s.Y = append(s.Y, float64(b.Designs))
			total += b.Designs
		}
		rep.AddSeries(s)
		mark := "no"
		if trend[v] {
			mark = "yes"
			increasing++
		}
		t.AddRow(Label(v), Count(total), Label(mark))
		grandTotal += total
	}
	rep.AddMetric(Metric{Name: "design_articles_total", Value: float64(grandTotal), HigherBetter: true})
	rep.AddMetric(Metric{Name: "venues_with_post2000_increase", Value: float64(increasing), HigherBetter: true})
	return rep, nil
}

func runFig3(_ context.Context, seed int64) (*Report, error) {
	cfg := biblio.DefaultReviewConfig()
	cfg.Seed = seed
	reviews, err := biblio.GenerateReviews(cfg)
	if err != nil {
		return nil, err
	}
	violins, err := biblio.Figure3(reviews)
	if err != nil {
		return nil, err
	}
	rep := NewReport("fig3", "Figure 3: violin summaries of review scores (merit/quality/topic)")
	var cats []string
	for c := range violins {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	t := rep.AddTable("violins",
		"category", "aspect", "n", "mean", "median", "q1", "q3", "whisker_lo", "whisker_hi")
	for _, c := range cats {
		for _, aspect := range []biblio.Aspect{biblio.AspectMerit, biblio.AspectQuality, biblio.AspectTopic} {
			v := violins[c][aspect]
			t.AddRow(Label(c), Label(string(aspect)), Count(v.N),
				Num(v.Mean, "%.2f"), Num(v.Median, "%.1f"),
				Num(v.Q1, "%.1f"), Num(v.Q3, "%.1f"),
				Num(v.WhiskerLo, "%.1f"), Num(v.WhiskerHi, "%.1f"))
		}
	}
	f := biblio.AnalyzeFigure3(reviews, violins)
	rep.AddMetric(Metric{Name: "design_merit_mean", Value: f.DesignMeritMean, HigherBetter: true})
	rep.AddMetric(Metric{Name: "non_design_merit_mean", Value: f.NonDesignMeritMean, HigherBetter: true})
	rep.AddMetric(Metric{Name: "design_below3_pct", Value: f.DesignBelow3Pct, Unit: "%"})
	rep.AddMetric(Metric{Name: "topic_median", Value: f.TopicMedian, HigherBetter: true})
	rep.AddNote("design submissions score lower on merit than non-design submissions despite on-topic ratings")
	return rep, nil
}
