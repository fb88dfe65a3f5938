package graphproc

import (
	"math"
	"testing"
	"testing/quick"
)

// chainGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	edges := make([][2]int32, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	g, err := FromEdges("chain", n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges("x", 0, nil, nil); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := FromEdges("x", 2, [][2]int32{{0, 5}}, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges("x", 2, [][2]int32{{0, 1}}, []float32{1, 2}); err == nil {
		t.Error("weight length mismatch accepted")
	}
}

func TestCSRStructure(t *testing.T) {
	g, err := FromEdges("t", 3, [][2]int32{{0, 2}, {0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Errorf("M = %d", g.M())
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want sorted [1 2]", nb)
	}
	if g.Degree(2) != 0 {
		t.Errorf("Degree(2) = %d", g.Degree(2))
	}
}

func TestBFSOnChain(t *testing.T) {
	g := chainGraph(t, 5)
	dist, prof, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dist[i] != float64(i) {
			t.Errorf("dist[%d] = %v, want %d", i, dist[i], i)
		}
	}
	// One superstep per non-empty frontier: {0},{1},{2},{3},{4}.
	if prof.Iterations != 5 {
		t.Errorf("chain BFS iterations = %d, want 5", prof.Iterations)
	}
	if _, _, err := BFS(g, 99); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestBFSUnreachable(t *testing.T) {
	g, err := FromEdges("disc", 3, [][2]int32{{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[2], 1) {
		t.Errorf("unreachable vertex dist = %v, want +Inf", dist[2])
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g, err := Generate(DatasetRMAT, 500, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rank, prof, err := PageRank(g, 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range rank {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("rank sum = %v, want 1", sum)
	}
	if prof.Iterations != 20 {
		t.Errorf("iterations = %d", prof.Iterations)
	}
	if _, _, err := PageRank(g, 0.85, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestWCCFindsComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4} (bidirectional edges).
	edges := [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {3, 4}, {4, 3}}
	g, err := FromEdges("cc", 5, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	label, _, err := WCC(g)
	if err != nil {
		t.Fatal(err)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Errorf("component 1 labels differ: %v", label[:3])
	}
	if label[3] != label[4] {
		t.Errorf("component 2 labels differ: %v", label[3:])
	}
	if label[0] == label[3] {
		t.Error("distinct components share a label")
	}
}

func TestCDLPStabilizesCommunities(t *testing.T) {
	// Two dense cliques joined by one edge.
	var edges [][2]int32
	link := func(a, b int32) { edges = append(edges, [2]int32{a, b}, [2]int32{b, a}) }
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			link(i, j)
			link(i+4, j+4)
		}
	}
	link(0, 4)
	g, err := FromEdges("cliques", 8, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	label, _, err := CDLP(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if label[1] != label[2] || label[2] != label[3] {
		t.Errorf("clique 1 not one community: %v", label[:4])
	}
	if label[5] != label[6] || label[6] != label[7] {
		t.Errorf("clique 2 not one community: %v", label[4:])
	}
}

func TestLCCOnTriangle(t *testing.T) {
	var edges [][2]int32
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}} {
		edges = append(edges, e, [2]int32{e[1], e[0]})
	}
	g, err := FromEdges("tri", 3, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	lcc, prof, err := LCC(g)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range lcc {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("triangle LCC[%d] = %v, want 1", v, c)
		}
	}
	if prof.ComputeUnits <= 0 {
		t.Error("LCC reported no compute units")
	}
}

func TestSSSPRespectsWeights(t *testing.T) {
	// 0->1 (10), 0->2 (1), 2->1 (2): shortest 0->1 is 3 via 2.
	edges := [][2]int32{{0, 1}, {0, 2}, {2, 1}}
	weights := []float32{10, 1, 2}
	g, err := FromEdges("w", 3, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := SSSP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != 3 {
		t.Errorf("dist[1] = %v, want 3", dist[1])
	}
	if _, _, err := SSSP(g, -1); err == nil {
		t.Error("negative source accepted")
	}
}

func TestSSSPMatchesBFSOnUnitWeights(t *testing.T) {
	g, err := Generate(DatasetSmallWorld, 300, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	bfs, _, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sssp, _, err := SSSP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range bfs {
		if bfs[v] != sssp[v] {
			t.Fatalf("vertex %d: bfs=%v sssp=%v", v, bfs[v], sssp[v])
		}
	}
}

func TestGenerateDatasets(t *testing.T) {
	for _, k := range []DatasetKind{DatasetRMAT, DatasetUniform, DatasetLattice, DatasetSmallWorld} {
		t.Run(k.String(), func(t *testing.T) {
			g, err := Generate(k, 1000, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if g.N < 1000 {
				t.Errorf("N = %d, want >= 1000", g.N)
			}
			if g.M() == 0 {
				t.Error("no edges")
			}
			if g.Weights == nil {
				t.Error("weighted graph missing weights")
			}
		})
	}
	if _, err := Generate(DatasetRMAT, 1, 1, false); err == nil {
		t.Error("tiny dataset accepted")
	}
	if _, err := Generate(DatasetKind(99), 100, 1, false); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestLatticeHasHighDiameter(t *testing.T) {
	lat, err := Generate(DatasetLattice, 900, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := Generate(DatasetRMAT, 900, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	_, latProf, err := BFS(lat, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, rmatProf, err := BFS(rmat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if latProf.Iterations <= 2*rmatProf.Iterations {
		t.Errorf("lattice BFS depth %d not much deeper than rmat %d",
			latProf.Iterations, rmatProf.Iterations)
	}
}

func TestEngineRuntimePositiveProperty(t *testing.T) {
	g, err := Generate(DatasetUniform, 500, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	_, prof, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx uint8) bool {
		engines := StandardEngines()
		e := engines[int(idx)%len(engines)]
		return e.Runtime(prof, g.M()) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEngineValidate(t *testing.T) {
	if err := (Engine{}).Validate(); err == nil {
		t.Error("unnamed engine accepted")
	}
	if err := (Engine{Name: "x", PerEdge: -1}).Validate(); err == nil {
		t.Error("negative coefficient accepted")
	}
	for _, e := range StandardEngines() {
		if err := e.Validate(); err != nil {
			t.Errorf("standard engine %s invalid: %v", e.Name, err)
		}
	}
}

func TestRunBenchmarkCoversCube(t *testing.T) {
	cfg := DefaultBenchmarkConfig()
	cfg.VertexCount = 600
	res, err := RunBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Datasets) * len(cfg.Algorithms) * len(cfg.Engines)
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.RuntimeMS <= 0 {
			t.Errorf("cell %s/%s/%s runtime %v", c.Engine, c.Algorithm, c.Dataset, c.RuntimeMS)
		}
	}
}

func TestPADLawHolds(t *testing.T) {
	cfg := DefaultBenchmarkConfig()
	cfg.VertexCount = 800
	res, err := RunBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzePAD(res)
	if err != nil {
		t.Fatal(err)
	}
	// The PAD law: no platform dominates across workloads.
	if rep.DistinctWinners < 2 {
		t.Errorf("distinct winners = %d, want >= 2 (PAD law)", rep.DistinctWinners)
	}
	// The interaction term must be material (the paper's core claim).
	if rep.InteractionFrac < 0.05 {
		t.Errorf("interaction fraction = %v, want >= 0.05", rep.InteractionFrac)
	}
	if len(rep.WinnerByColumn) != len(cfg.Algorithms)*len(cfg.Datasets) {
		t.Errorf("winner map size = %d", len(rep.WinnerByColumn))
	}
}

func TestHPADAddsWinners(t *testing.T) {
	cfg := DefaultBenchmarkConfig()
	cfg.VertexCount = 800
	res, err := RunBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeHPAD(res, cfg.Engines)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HWinsColumns == 0 {
		t.Error("heterogeneous platform wins no columns; HPAD extension has no effect")
	}
	if rep.WinnersWithH < rep.WinnersWithoutH {
		t.Errorf("winner count shrank when adding H: %d -> %d", rep.WinnersWithoutH, rep.WinnersWithH)
	}
	// Without heterogeneous engines the analysis must error.
	homog := []Engine{{Name: "a", Workers: 1}, {Name: "b", Workers: 2}}
	if _, err := AnalyzeHPAD(res, homog); err == nil {
		t.Error("HPAD without H engines accepted")
	}
}
