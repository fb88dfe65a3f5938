package mmog

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateWorld(t *testing.T) {
	cfg := DefaultWorldConfig(500)
	w := GenerateWorld(cfg)
	if w.Len() != 500 || len(w.Y) != 500 || len(w.Actionable) != 500 {
		t.Fatalf("entities = %d/%d/%d", len(w.X), len(w.Y), len(w.Actionable))
	}
	if len(w.POIs) != cfg.POIs {
		t.Fatalf("POIs = %d", len(w.POIs))
	}
	for i := range w.X {
		if w.X[i] < 0 || w.X[i] >= cfg.Size || w.Y[i] < 0 || w.Y[i] >= cfg.Size {
			t.Fatalf("entity %d out of bounds: (%v,%v)", i, w.X[i], w.Y[i])
		}
	}
}

func TestPairLoadQuadraticInCluster(t *testing.T) {
	// All entities co-located: load ~ n(n-1)/2.
	w := &World{Size: 1000}
	var idxs []int32
	for i := 0; i < 20; i++ {
		w.X = append(w.X, 10)
		w.Y = append(w.Y, 10)
		w.Actionable = append(w.Actionable, true)
		idxs = append(idxs, int32(i))
	}
	l10 := pairLoad(w, idxs[:10])
	l20 := pairLoad(w, idxs)
	if l20 < 3.5*l10 {
		t.Errorf("load not superlinear: l10=%v l20=%v", l10, l20)
	}
}

func TestPairLoadIgnoresDistantPairs(t *testing.T) {
	w := &World{Size: 1000, X: []float64{0, 500}, Y: []float64{0, 500}, Actionable: []bool{true, true}}
	got := pairLoad(w, []int32{0, 1})
	want := 0 + 2*0.1 // no interacting pairs, only the linear term
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("pairLoad = %v, want %v", got, want)
	}
}

func TestZonePartitionerConservesEntities(t *testing.T) {
	w := GenerateWorld(DefaultWorldConfig(300))
	loads := ZonePartitioner{}.Loads(w, 9, &PartitionScratch{})
	if len(loads) != 9 {
		t.Fatalf("loads = %d servers", len(loads))
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if total <= 0 {
		t.Error("zero total load")
	}
}

func TestAoSBalancesBetterThanZones(t *testing.T) {
	// Hot POI clustering: zones put the battle in one cell; AoS shards it.
	cfg := DefaultWorldConfig(600)
	cfg.HotFraction = 0.6
	w := GenerateWorld(cfg)
	servers := 16
	zl := ZonePartitioner{}.Loads(w, servers, &PartitionScratch{})
	al := AoSPartitioner{}.Loads(w, servers, &PartitionScratch{})
	maxOf := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(al) >= maxOf(zl) {
		t.Errorf("AoS max load %v not below zones max load %v", maxOf(al), maxOf(zl))
	}
}

func TestMirrorReducesLoad(t *testing.T) {
	w := GenerateWorld(DefaultWorldConfig(400))
	a := AoSPartitioner{}.Loads(w, 8, &PartitionScratch{})
	m := MirrorPartitioner{OffloadFraction: 0.5}.Loads(w, 8, &PartitionScratch{})
	for i := range a {
		if m[i] > a[i] {
			t.Fatalf("mirror load %v above AoS load %v", m[i], a[i])
		}
	}
}

func TestMaxSupportedPlayersOrdering(t *testing.T) {
	w := newScalabilityWorld(1)
	zones := w.maxPlayers(ZonePartitioner{}, 16, 3000)
	aos := w.maxPlayers(AoSPartitioner{}, 16, 3000)
	mirror := w.maxPlayers(MirrorPartitioner{OffloadFraction: 0.5}, 16, 3000)
	if !(zones < aos && aos < mirror) {
		t.Errorf("scalability ordering violated: zones=%d aos=%d mirror=%d", zones, aos, mirror)
	}
	if zones == 0 {
		t.Error("zones supports no players at all")
	}
}

func TestRunScalabilityStudyRows(t *testing.T) {
	rows := RunScalabilityStudy([]int{4}, 2000, 1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 techniques", len(rows))
	}
	for _, r := range rows {
		if r.MaxPlayers <= 0 {
			t.Errorf("row %s has zero players", r.Technique)
		}
		if r.String() == "" {
			t.Error("empty row string")
		}
	}
}

func TestPopulationSeriesShape(t *testing.T) {
	pm := DefaultPopulationModel()
	hourly := pm.Series(28)
	if len(hourly) != 28*24 {
		t.Fatalf("series length = %d", len(hourly))
	}
	for _, v := range hourly {
		if v < 0 {
			t.Fatal("negative population")
		}
	}
	rep := AnalyzeDynamics(hourly)
	if rep.PeakToTrough < 1.5 {
		t.Errorf("peak/trough = %v, want >= 1.5 (diurnal cycle)", rep.PeakToTrough)
	}
	if rep.WeeklyVariation <= 1 {
		t.Errorf("weekend uplift = %v, want > 1", rep.WeeklyVariation)
	}
	if math.Abs(rep.TrendPerDay-pm.GrowthPerDay) > 0.005 {
		t.Errorf("trend = %v, want ~%v", rep.TrendPerDay, pm.GrowthPerDay)
	}
}

func TestAnalyzeDynamicsEmpty(t *testing.T) {
	rep := AnalyzeDynamics(nil)
	if rep.MeanPlayers != 0 {
		t.Errorf("empty dynamics = %+v", rep)
	}
}

func TestMatchModelProperties(t *testing.T) {
	matches := MatchModel{Players: 500, TeamSize: 5, Seed: 2}.Generate(200)
	if len(matches) != 200 {
		t.Fatalf("matches = %d", len(matches))
	}
	for _, m := range matches {
		if len(m.Players) != 10 {
			t.Fatalf("match %d has %d players", m.ID, len(m.Players))
		}
		seen := map[int]bool{}
		for _, p := range m.Players {
			if seen[p] {
				t.Fatalf("match %d has duplicate player %d", m.ID, p)
			}
			seen[p] = true
		}
		if m.Winner != 0 && m.Winner != 1 {
			t.Fatalf("match %d winner = %d", m.ID, m.Winner)
		}
	}
}

func TestMatchModelDefaultsProperty(t *testing.T) {
	f := func(seed int64, teamRaw uint8) bool {
		team := int(teamRaw%8) + 1
		mm := MatchModel{Players: 100, TeamSize: team, Seed: seed}
		for _, m := range mm.Generate(20) {
			if len(m.Players) != team*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSocialNetworkClustering(t *testing.T) {
	matches := MatchModel{Players: 400, TeamSize: 5, Seed: 3}.Generate(800)
	sn := BuildSocialNetwork(matches)
	if sn.Nodes() == 0 || sn.Edges() == 0 {
		t.Fatal("empty network")
	}
	cc := sn.ClusteringCoefficient()
	base := sn.RandomBaselineClustering()
	if cc <= base {
		t.Errorf("clustering %v not above random baseline %v (no community structure)", cc, base)
	}
}

func TestToxicityGroundTruthSkew(t *testing.T) {
	matches := MatchModel{Players: 200, TeamSize: 5, Seed: 1}.Generate(500)
	tm := DefaultToxicityModel()
	events := tm.Generate(matches)
	if len(events) == 0 {
		t.Fatal("no chat generated")
	}
	toxic := 0
	for _, e := range events {
		if e.Toxic {
			toxic++
		}
	}
	rate := float64(toxic) / float64(len(events))
	// Between the winner base rate and the loser rate.
	if rate <= tm.BaseRate || rate >= tm.BaseRate*tm.LosingMultiplier {
		t.Errorf("overall toxic rate = %v, want in (%v,%v)", rate, tm.BaseRate, tm.BaseRate*tm.LosingMultiplier)
	}
}

func TestToxicityDetectorScores(t *testing.T) {
	matches := MatchModel{Players: 200, TeamSize: 5, Seed: 1}.Generate(500)
	events := DefaultToxicityModel().Generate(matches)
	rep := ToxicityDetector{TruePositiveRate: 0.8, FalsePositiveRate: 0.02, Seed: 4}.Apply(events)
	if rep.Recall < 0.6 || rep.Recall > 0.95 {
		t.Errorf("recall = %v, want ~0.8", rep.Recall)
	}
	if rep.Precision <= 0.3 {
		t.Errorf("precision = %v, too low", rep.Precision)
	}
	if rep.Flagged == 0 || rep.Toxic == 0 {
		t.Errorf("degenerate report %+v", rep)
	}
}

func TestProvisioningPolicies(t *testing.T) {
	pm := DefaultPopulationModel()
	hourly := pm.Series(14)
	static := EvaluateProvisioning(StaticPeak{}, hourly, 1000)
	pred := EvaluateProvisioning(Predictive{}, hourly, 1000)

	if static.QoSViolations > len(hourly)/10 {
		t.Errorf("static peak violates QoS %d times", static.QoSViolations)
	}
	if pred.ServerHours >= static.ServerHours {
		t.Errorf("predictive cost %d not below static %d", pred.ServerHours, static.ServerHours)
	}
}

func TestRunTable6AllRows(t *testing.T) {
	rows := RunTable6(1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	features := map[string]bool{}
	for _, r := range rows {
		if r.Finding == "" {
			t.Errorf("row %s empty finding", r.Study)
		}
		features[r.Feature] = true
	}
	for _, f := range []string{"Dynamics (MMORPG)", "Social networks", "Toxicity", "V-World scalability (AoS)", "RM&S provisioning"} {
		if !features[f] {
			t.Errorf("missing feature %q", f)
		}
	}
	// Headline shapes: AoS gain > 1, provisioning saving > 0.
	for _, r := range rows {
		switch r.Feature {
		case "V-World scalability (AoS)":
			if r.Value <= 1 {
				t.Errorf("AoS gain = %v, want > 1", r.Value)
			}
		case "RM&S provisioning":
			if r.Value <= 0 {
				t.Errorf("provisioning saving = %v%%, want > 0", r.Value)
			}
		}
	}
}
