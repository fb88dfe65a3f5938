package biblio

import (
	"iter"
	"reflect"
	"testing"
)

func genCorpus(t *testing.T) iter.Seq[*Publication] {
	t.Helper()
	cfg := DefaultCorpusConfig()
	cfg.ArticlesPerVenueYear = 20 // keep tests fast
	corpus, err := Corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Corpus(CorpusConfig{StartYear: 2000, EndYear: 1990, ArticlesPerVenueYear: 10}); err == nil {
		t.Error("inverted year range accepted")
	}
	if _, err := Corpus(CorpusConfig{StartYear: 2000, EndYear: 2001}); err == nil {
		t.Error("zero volume accepted")
	}
}

func TestCorpusRespectsVenueStarts(t *testing.T) {
	for p := range genCorpus(t) {
		if start := venueStart(p.Venue); p.Year < start {
			t.Fatalf("%s published in %d before its start %d", p.Venue, p.Year, start)
		}
	}
}

func TestFigure1OrderMatchesPaper(t *testing.T) {
	counts := Figure1(genCorpus(t))
	if len(counts) != len(KeywordWeights()) {
		t.Fatalf("keywords counted = %d, want %d", len(counts), len(KeywordWeights()))
	}
	pos := map[string]int{}
	for i, kc := range counts {
		pos[kc.Keyword] = i
		if kc.Count <= 0 {
			t.Errorf("keyword %q count %d", kc.Keyword, kc.Count)
		}
	}
	// The paper's headline ordering: performance first, design second, edge
	// last.
	if pos["performance"] != 0 {
		t.Errorf("performance rank = %d, want 0", pos["performance"])
	}
	if pos["design"] != 1 {
		t.Errorf("design rank = %d, want 1", pos["design"])
	}
	if pos["edge"] != len(counts)-1 {
		t.Errorf("edge rank = %d, want last", pos["edge"])
	}
}

func TestFigure2MarkedIncreaseSince2000(t *testing.T) {
	rows := Figure2(genCorpus(t))
	if len(rows) == 0 {
		t.Fatal("no Figure 2 rows")
	}
	trend := Figure2Trend(rows)
	increasing := 0
	for _, up := range trend {
		if up {
			increasing++
		}
	}
	if increasing < len(trend)*3/4 {
		t.Errorf("only %d/%d venues show post-2000 increase", increasing, len(trend))
	}
	// Censored venues must not have pre-start blocks.
	for _, r := range rows {
		if r.BlockStart < venueStart(r.Venue)-4 {
			t.Errorf("venue %s has block %d before start", r.Venue, r.BlockStart)
		}
	}
}

func TestGenerateReviewsValidation(t *testing.T) {
	if _, err := GenerateReviews(ReviewConfig{}); err == nil {
		t.Error("zero submissions accepted")
	}
}

func TestReviewScoresInRange(t *testing.T) {
	reviews, err := GenerateReviews(DefaultReviewConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reviews {
		for _, s := range []int{p.Merit, p.Quality, p.Topic} {
			if s < 1 || s > 4 {
				t.Fatalf("score %d out of 1..4", s)
			}
		}
	}
}

func TestFigure3FindingsHold(t *testing.T) {
	reviews, err := GenerateReviews(DefaultReviewConfig())
	if err != nil {
		t.Fatal(err)
	}
	violins, err := Figure3(reviews)
	if err != nil {
		t.Fatal(err)
	}
	if len(violins) != 7 {
		t.Fatalf("categories = %d, want 7", len(violins))
	}
	f := AnalyzeFigure3(reviews, violins)
	// Finding (1): design articles have a slightly better merit shape.
	if f.DesignMeritMean <= f.NonDesignMeritMean {
		t.Errorf("design merit mean %v not above non-design %v",
			f.DesignMeritMean, f.NonDesignMeritMean)
	}
	if f.DesignMeritMedian < f.NonDesignMeritMedian {
		t.Errorf("design merit median %v below non-design %v",
			f.DesignMeritMedian, f.NonDesignMeritMedian)
	}
	// Finding (2): a significant share of design submissions score below 3.
	if f.DesignBelow3Pct < 20 {
		t.Errorf("design below-3 share = %v%%, want >= 20%% (self-assessment problem)", f.DesignBelow3Pct)
	}
	// Finding (3): topic scores cluster high (CfP steering).
	if f.TopicMedian < 3 {
		t.Errorf("topic median = %v, want >= 3", f.TopicMedian)
	}
}

func TestFigure3AcceptedBeatRejected(t *testing.T) {
	reviews, err := GenerateReviews(DefaultReviewConfig())
	if err != nil {
		t.Fatal(err)
	}
	violins, err := Figure3(reviews)
	if err != nil {
		t.Fatal(err)
	}
	acc := violins["Design accepted"][AspectMerit]
	rej := violins["Design rejected"][AspectMerit]
	if acc.Mean <= rej.Mean {
		t.Errorf("accepted mean %v not above rejected %v", acc.Mean, rej.Mean)
	}
}

func TestAcceptRateNearTarget(t *testing.T) {
	cfg := DefaultReviewConfig()
	reviews, err := GenerateReviews(cfg)
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for _, p := range reviews {
		if p.Accepted {
			accepts++
		}
	}
	rate := float64(accepts) / float64(len(reviews))
	if rate < 0.1 || rate > 0.4 {
		t.Errorf("accept rate = %v, want near %v", rate, cfg.AcceptRate)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.ArticlesPerVenueYear = 5
	a, err := collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("corpus not deterministic: %d vs %d publications", len(a), len(b))
	}
}
