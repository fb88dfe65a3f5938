package graphproc

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// cdlpLabel is a CDLP label: a vertex ID stored as a float64.
type cdlpLabel = float64

// refCDLP is the map-per-vertex CDLP that the dense count array replaced,
// kept as the reference the parity test compares against.
func refCDLP(g *Graph, iters int) ([]float64, *Profile, error) {
	if iters < 1 {
		return nil, nil, fmt.Errorf("graphproc: cdlp iterations %d", iters)
	}
	label := make([]float64, g.N)
	for i := range label {
		label[i] = float64(i)
	}
	prof := &Profile{Algorithm: AlgoCDLP, Dataset: g.Name}
	next := make([]float64, g.N)
	for it := 0; it < iters; it++ {
		var edges int64
		for v := 0; v < g.N; v++ {
			nb := g.Neighbors(v)
			if len(nb) == 0 {
				next[v] = label[v]
				continue
			}
			counts := make(map[cdlpLabel]int, len(nb))
			for _, u := range nb {
				counts[label[u]]++
				edges++
			}
			best, bestC := label[v], 0
			for l, c := range counts {
				if c > bestC || (c == bestC && l < best) {
					best, bestC = l, c
				}
			}
			next[v] = best
		}
		label, next = next, label
		prof.Iterations++
		prof.ActivePerIter = append(prof.ActivePerIter, int64(g.N))
		prof.EdgesPerIter = append(prof.EdgesPerIter, edges)
	}
	return label, prof, nil
}

// refFromEdges is the FromEdges that sorted each adjacency list on its
// own, kept as the reference the parity test compares against.
func refFromEdges(name string, n int, edges [][2]int32, weights []float32) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graphproc: vertex count %d", n)
	}
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graphproc: %d weights for %d edges", len(weights), len(edges))
	}
	deg := make([]int32, n)
	for _, e := range edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("graphproc: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		deg[e[0]]++
	}
	g := &Graph{Name: name, N: n}
	g.offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	g.targets = make([]int32, len(edges))
	if weights != nil {
		g.Weights = make([]float32, len(edges))
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for i, e := range edges {
		pos := cursor[e[0]]
		g.targets[pos] = e[1]
		if weights != nil {
			g.Weights[pos] = weights[i]
		}
		cursor[e[0]]++
	}
	// Sort adjacency lists for deterministic traversal order.
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if g.Weights == nil {
			seg := g.targets[lo:hi]
			slices.Sort(seg)
			continue
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		tg := g.targets[lo:hi]
		wt := g.Weights[lo:hi]
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(tg[a], tg[b]) })
		nt := make([]int32, len(idx))
		nw := make([]float32, len(idx))
		for i, j := range idx {
			nt[i] = tg[j]
			nw[i] = wt[j]
		}
		copy(tg, nt)
		copy(wt, nw)
	}
	return g, nil
}

// refLCC is the LCC that intersected sorted adjacency lists pairwise,
// kept as the reference the parity test compares against.
func refLCC(g *Graph) ([]float64, *Profile, error) {
	out := make([]float64, g.N)
	prof := &Profile{Algorithm: AlgoLCC, Dataset: g.Name, Iterations: 1}
	var edges int64
	var work float64
	for v := 0; v < g.N; v++ {
		nb := g.Neighbors(v)
		edges += int64(len(nb))
		d := len(nb)
		if d < 2 {
			continue
		}
		links := 0
		for _, u := range nb {
			// Intersect neighbor lists (both sorted).
			links += intersectCount(nb, g.Neighbors(int(u)))
			work += float64(d + g.Degree(int(u)))
		}
		out[v] = float64(links) / float64(d*(d-1))
	}
	prof.ActivePerIter = []int64{int64(g.N)}
	prof.EdgesPerIter = []int64{edges}
	prof.ComputeUnits = work
	return out, prof, nil
}

// intersectCount counts common elements of two sorted int32 slices.
func intersectCount(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// parityGraphs returns every dataset kind at two sizes and seeds, plus a
// multigraph with duplicate edges, self-loops and isolated vertices.
func parityGraphs(t *testing.T) []*Graph {
	t.Helper()
	var gs []*Graph
	for _, kind := range []DatasetKind{DatasetRMAT, DatasetUniform, DatasetLattice, DatasetSmallWorld} {
		for i, n := range []int{64, 1500} {
			g, err := Generate(kind, n, int64(7+i), i == 1)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
	}
	// Vertices 6..9 are isolated; 0->1 and 2->3 are duplicated, so label
	// counts tie and break on the lowest label.
	multi, err := FromEdges("multi", 10, [][2]int32{
		{0, 1}, {0, 1}, {0, 2}, {0, 3}, {0, 3},
		{1, 0}, {1, 2}, {1, 2}, {1, 1},
		{2, 3}, {2, 3}, {2, 0}, {2, 5},
		{3, 2}, {3, 4}, {3, 4}, {3, 0},
		{4, 4}, {4, 3}, {5, 2}, {5, 4},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(gs, multi)
}

func TestCDLPParity(t *testing.T) {
	for _, g := range parityGraphs(t) {
		for _, iters := range []int{1, 10} {
			got, gotProf, err := CDLP(g, iters)
			if err != nil {
				t.Fatal(err)
			}
			want, wantProf, err := refCDLP(g, iters)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s (N=%d) iters %d: vertex %d label %v, reference %v", g.Name, g.N, iters, v, got[v], want[v])
				}
			}
			if !reflect.DeepEqual(gotProf, wantProf) {
				t.Errorf("%s (N=%d) iters %d: profile %+v, reference %+v", g.Name, g.N, iters, gotProf, wantProf)
			}
		}
	}
}

// TestCDLPAllocsIndependentOfSize guards the dense counting: a count
// structure built per vertex would make the allocations grow with N.
func TestCDLPAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		g, err := Generate(DatasetRMAT, n, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := CDLP(g, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(16000)
	if small != large {
		t.Errorf("CDLP allocates %v times per call at N=1k but %v at N=16k", small, large)
	}
}

func TestFromEdgesParity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 300} {
		for _, weighted := range []bool{false, true} {
			// Few targets per vertex on average, so duplicates and
			// self-loops are common.
			edges := make([][2]int32, 4*n)
			var weights []float32
			if weighted {
				weights = make([]float32, len(edges))
			}
			for i := range edges {
				edges[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(max(1, n/3)))}
				if weighted {
					weights[i] = float32(r.Intn(4))
				}
			}
			got, err := FromEdges("p", n, edges, weights)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refFromEdges("p", n, edges, weights)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d weighted=%v: CSR differs from the reference", n, weighted)
			}
		}
	}
	// The generators' raw edge lists, with weights.
	const n = 2000
	for _, edges := range [][][2]int32{
		rmatEdges(r, n, 8*n),
		uniformEdges(r, n, 8*n),
		latticeEdges(n),
		smallWorldEdges(r, n, 4, 0.05),
	} {
		weights := make([]float32, len(edges))
		for i := range weights {
			weights[i] = 1 + float32(r.Float64()*9)
		}
		nv := latticeSide(n) * latticeSide(n) // covers every generator's range
		got, err := FromEdges("g", nv, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refFromEdges("g", nv, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d edges: CSR differs from the reference", len(edges))
		}
	}
}

func TestLCCParity(t *testing.T) {
	for _, g := range parityGraphs(t) {
		got, gotProf, err := LCC(g)
		if err != nil {
			t.Fatal(err)
		}
		want, wantProf, err := refLCC(g)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s (N=%d): vertex %d coefficient %v, reference %v", g.Name, g.N, v, got[v], want[v])
			}
		}
		if !reflect.DeepEqual(gotProf, wantProf) {
			t.Errorf("%s (N=%d): profile %+v, reference %+v", g.Name, g.N, gotProf, wantProf)
		}
	}
}
