package graphproc

import (
	"fmt"
	"math"
)

// Profile records how an algorithm executed on a graph: the information a
// Granula-style fine-grained performance analyzer extracts, and the input to
// every platform cost model.
type Profile struct {
	Algorithm string
	Dataset   string
	// Iterations is the number of supersteps (BSP rounds).
	Iterations int
	// ActivePerIter is the number of active vertices per superstep.
	ActivePerIter []int64
	// EdgesPerIter is the number of edges scanned per superstep.
	EdgesPerIter []int64
	// ComputeUnits is extra per-vertex arithmetic beyond edge scans
	// (e.g., LCC's triangle intersections).
	ComputeUnits float64
}

// Algorithm names; the "A" of the PAD triangle (the Graphalytics six).
const (
	AlgoBFS      = "BFS"
	AlgoPageRank = "PR"
	AlgoWCC      = "WCC"
	AlgoCDLP     = "CDLP"
	AlgoLCC      = "LCC"
	AlgoSSSP     = "SSSP"
)

// Algorithms lists the Graphalytics algorithm names in canonical order.
func Algorithms() []string {
	return []string{AlgoBFS, AlgoPageRank, AlgoWCC, AlgoCDLP, AlgoLCC, AlgoSSSP}
}

// RunAlgorithm executes the named algorithm and returns its result vector
// and execution profile. BFS/SSSP start from vertex 0.
func RunAlgorithm(name string, g *Graph) ([]float64, *Profile, error) {
	switch name {
	case AlgoBFS:
		return BFS(g, 0)
	case AlgoPageRank:
		return PageRank(g, 0.85, 20)
	case AlgoWCC:
		return WCC(g)
	case AlgoCDLP:
		return CDLP(g, 10)
	case AlgoLCC:
		return LCC(g)
	case AlgoSSSP:
		return SSSP(g, 0)
	default:
		return nil, nil, fmt.Errorf("graphproc: unknown algorithm %q", name)
	}
}

// BFS returns the hop distance from src (-1 encoded as +Inf for unreached).
func BFS(g *Graph, src int) ([]float64, *Profile, error) {
	if src < 0 || src >= g.N {
		return nil, nil, fmt.Errorf("graphproc: bfs source %d out of range", src)
	}
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	prof := &Profile{Algorithm: AlgoBFS, Dataset: g.Name}
	frontier, next := []int32{int32(src)}, []int32(nil)
	for level := 1; len(frontier) > 0; level++ {
		var edges int64
		for _, v := range frontier {
			for _, u := range g.Neighbors(int(v)) {
				edges++
				if math.IsInf(dist[u], 1) {
					dist[u] = float64(level)
					next = append(next, u)
				}
			}
		}
		prof.Iterations++
		prof.ActivePerIter = append(prof.ActivePerIter, int64(len(frontier)))
		prof.EdgesPerIter = append(prof.EdgesPerIter, edges)
		frontier, next = next, frontier[:0]
	}
	return dist, prof, nil
}

// PageRank runs the classic damped power iteration for iters supersteps.
func PageRank(g *Graph, damping float64, iters int) ([]float64, *Profile, error) {
	if iters < 1 {
		return nil, nil, fmt.Errorf("graphproc: pagerank iterations %d", iters)
	}
	n := float64(g.N)
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1 / n
	}
	prof := &Profile{Algorithm: AlgoPageRank, Dataset: g.Name}
	for it := 0; it < iters; it++ {
		var edges int64
		base := (1 - damping) / n
		for i := range next {
			next[i] = base
		}
		dangling := 0.0
		for v := 0; v < g.N; v++ {
			nb := g.Neighbors(v)
			if len(nb) == 0 {
				dangling += rank[v]
				continue
			}
			share := damping * rank[v] / float64(len(nb))
			for _, u := range nb {
				next[u] += share
				edges++
			}
		}
		spread := damping * dangling / n
		for i := range next {
			next[i] += spread
		}
		rank, next = next, rank
		prof.Iterations++
		prof.ActivePerIter = append(prof.ActivePerIter, int64(g.N))
		prof.EdgesPerIter = append(prof.EdgesPerIter, edges)
	}
	return rank, prof, nil
}

// WCC computes weakly connected components by label propagation over the
// symmetrized neighborhood (out-edges only in this CSR; the generators emit
// both directions for undirected topologies).
func WCC(g *Graph) ([]float64, *Profile, error) {
	label := make([]float64, g.N)
	for i := range label {
		label[i] = float64(i)
	}
	prof := &Profile{Algorithm: AlgoWCC, Dataset: g.Name}
	active, nextActive := make([]bool, g.N), make([]bool, g.N)
	nActive := int64(g.N)
	for i := range active {
		active[i] = true
	}
	for nActive > 0 {
		var edges int64
		var nNext int64
		for v := 0; v < g.N; v++ {
			if !active[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				edges++
				if label[v] < label[u] {
					label[u] = label[v]
					if !nextActive[u] {
						nextActive[u] = true
						nNext++
					}
				} else if label[u] < label[v] {
					label[v] = label[u]
					if !nextActive[v] {
						nextActive[v] = true
						nNext++
					}
				}
			}
		}
		prof.Iterations++
		prof.ActivePerIter = append(prof.ActivePerIter, nActive)
		prof.EdgesPerIter = append(prof.EdgesPerIter, edges)
		active, nextActive = nextActive, active
		clear(nextActive)
		nActive = nNext
	}
	return label, prof, nil
}

// CDLP is community detection by synchronous label propagation for iters
// rounds: each vertex adopts the most frequent label among its neighbors,
// ties going to the lowest label.
//
// Labels are vertex IDs, so one dense count array indexed by label, reset
// through the list of labels each vertex touched, does the counting; the
// call allocates the same few arrays whatever the graph's size.
func CDLP(g *Graph, iters int) ([]float64, *Profile, error) {
	if iters < 1 {
		return nil, nil, fmt.Errorf("graphproc: cdlp iterations %d", iters)
	}
	label := make([]int32, g.N)
	for i := range label {
		label[i] = int32(i)
	}
	next := make([]int32, g.N)
	counts := make([]int32, g.N)
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	touched := make([]int32, 0, maxDeg)
	prof := &Profile{
		Algorithm:     AlgoCDLP,
		Dataset:       g.Name,
		ActivePerIter: make([]int64, 0, iters),
		EdgesPerIter:  make([]int64, 0, iters),
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < g.N; v++ {
			best := label[v]
			touched = touched[:0]
			for _, u := range g.Neighbors(v) {
				l := label[u]
				if counts[l] == 0 {
					touched = append(touched, l)
				}
				counts[l]++
			}
			var bestC int32
			for _, l := range touched {
				if c := counts[l]; c > bestC || (c == bestC && l < best) {
					best, bestC = l, c
				}
				counts[l] = 0
			}
			next[v] = best
		}
		label, next = next, label
		prof.Iterations++
		prof.ActivePerIter = append(prof.ActivePerIter, int64(g.N))
		prof.EdgesPerIter = append(prof.EdgesPerIter, int64(g.M()))
	}
	out := make([]float64, g.N)
	for v, l := range label {
		out[v] = float64(l)
	}
	return out, prof, nil
}

// LCC computes the local clustering coefficient per vertex by counting,
// for each neighbor, the neighbors it shares with the vertex;
// compute-heavy (the ComputeUnits term dominates). Shared neighbors are
// counted as a multiset intersection: a target listed a times by the
// vertex and b times by the neighbor counts min(a, b) times. A neighbor
// listed c times is intersected once and counted c times; its work is
// still added c times, term by term, so ComputeUnits keeps its bits.
func LCC(g *Graph) ([]float64, *Profile, error) {
	out := make([]float64, g.N)
	prof := &Profile{Algorithm: AlgoLCC, Dataset: g.Name, Iterations: 1}
	// mult[x] is how often the current vertex lists x as a neighbor.
	mult := make([]int32, g.N)
	var work float64
	for v := 0; v < g.N; v++ {
		nb := g.Neighbors(v)
		d := len(nb)
		if d < 2 {
			continue
		}
		for _, x := range nb {
			mult[x]++
		}
		links := 0
		// Adjacency lists are sorted, so the copies of a neighbor are
		// consecutive: nb[k:k+c] are the c copies of u.
		for k := 0; k < d; {
			u := nb[k]
			c := int(mult[u])
			nu := g.Neighbors(int(u))
			shared := 0
			for i := 0; i < len(nu); {
				x, j := nu[i], i+1
				for j < len(nu) && nu[j] == x {
					j++
				}
				shared += min(int(mult[x]), j-i)
				i = j
			}
			links += c * shared
			for range c {
				work += float64(d + len(nu))
			}
			k += c
		}
		for _, x := range nb {
			mult[x] = 0
		}
		out[v] = float64(links) / float64(d*(d-1))
	}
	prof.ActivePerIter = []int64{int64(g.N)}
	prof.EdgesPerIter = []int64{int64(g.M())}
	prof.ComputeUnits = work
	return out, prof, nil
}

// SSSP computes single-source shortest paths with iterative Bellman–Ford
// using an active frontier (weights default to 1 when the graph is
// unweighted).
func SSSP(g *Graph, src int) ([]float64, *Profile, error) {
	if src < 0 || src >= g.N {
		return nil, nil, fmt.Errorf("graphproc: sssp source %d out of range", src)
	}
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	prof := &Profile{Algorithm: AlgoSSSP, Dataset: g.Name}
	frontier, next := []int32{int32(src)}, []int32(nil)
	// inNext marks the vertices of next; it is cleared through next once
	// next becomes the frontier.
	inNext := make([]bool, g.N)
	for len(frontier) > 0 && prof.Iterations < g.N {
		var edges int64
		for _, v := range frontier {
			nb := g.Neighbors(int(v))
			wt := g.EdgeWeights(int(v))
			for i, u := range nb {
				edges++
				w := 1.0
				if wt != nil {
					w = float64(wt[i])
				}
				if d := dist[v] + w; d < dist[u] {
					dist[u] = d
					if !inNext[u] {
						inNext[u] = true
						next = append(next, u)
					}
				}
			}
		}
		prof.Iterations++
		prof.ActivePerIter = append(prof.ActivePerIter, int64(len(frontier)))
		prof.EdgesPerIter = append(prof.EdgesPerIter, edges)
		for _, u := range next {
			inNext[u] = false
		}
		frontier, next = next, frontier[:0]
	}
	return dist, prof, nil
}
