// Package graphproc is the graph-processing substrate of the Graphalytics
// experiments (paper §6.5, Table 8). It provides CSR graphs, dataset
// generators with distinct topologies, the six Graphalytics algorithms (BFS,
// PageRank, WCC, CDLP, LCC, SSSP) instrumented with execution profiles, and
// several platform models whose costs depend differently on those profiles —
// which is exactly what gives rise to the PAD (Platform–Algorithm–Dataset)
// interaction law.
package graphproc

import (
	"fmt"
	"math/rand"
)

// Graph is a directed graph in CSR (compressed sparse row) form. Vertices
// are 0..N-1.
type Graph struct {
	Name    string
	N       int
	offsets []int32
	targets []int32
	// Weights parallel targets; nil for unweighted graphs.
	Weights []float32
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.targets) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v. The returned slice aliases the
// CSR storage and must not be mutated.
func (g *Graph) Neighbors(v int) []int32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// EdgeWeights returns the weights parallel to Neighbors(v), or nil.
func (g *Graph) EdgeWeights(v int) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.offsets[v]:g.offsets[v+1]]
}

// FromEdges builds a CSR graph from an edge list. Self-loops are kept;
// duplicate edges are kept (multigraph semantics, like Graphalytics inputs
// after dedup is skipped). Each adjacency list is sorted by target, with
// duplicate edges in input order.
func FromEdges(name string, n int, edges [][2]int32, weights []float32) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graphproc: vertex count %d", n)
	}
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graphproc: %d weights for %d edges", len(weights), len(edges))
	}
	g := &Graph{Name: name, N: n}
	g.offsets = make([]int32, n+1)
	// cursor counts edges per target, then per source.
	cursor := make([]int32, n+1)
	for _, e := range edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("graphproc: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		g.offsets[e[0]+1]++
		cursor[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
		cursor[v+1] += cursor[v]
	}
	// Two stable counting sorts, by target and then by source, order each
	// adjacency list by target and keep duplicate edges in input order.
	byTarget := make([]int32, len(edges))
	for i, e := range edges {
		byTarget[cursor[e[1]]] = int32(i)
		cursor[e[1]]++
	}
	copy(cursor, g.offsets[:n])
	g.targets = make([]int32, len(edges))
	if weights != nil {
		g.Weights = make([]float32, len(edges))
	}
	for _, i := range byTarget {
		e := edges[i]
		pos := cursor[e[0]]
		g.targets[pos] = e[1]
		if weights != nil {
			g.Weights[pos] = weights[i]
		}
		cursor[e[0]]++
	}
	return g, nil
}

// DatasetKind identifies a generator topology; the "D" of the PAD triangle.
type DatasetKind int

// Dataset kinds.
const (
	DatasetRMAT       DatasetKind = iota + 1 // power-law, low diameter (social)
	DatasetUniform                           // Erdős–Rényi, moderate diameter
	DatasetLattice                           // 2D grid, very high diameter (road-like)
	DatasetSmallWorld                        // ring + shortcuts (Watts–Strogatz-like)
)

// String implements fmt.Stringer.
func (k DatasetKind) String() string {
	switch k {
	case DatasetRMAT:
		return "rmat"
	case DatasetUniform:
		return "uniform"
	case DatasetLattice:
		return "lattice"
	case DatasetSmallWorld:
		return "smallworld"
	default:
		return fmt.Sprintf("Dataset(%d)", int(k))
	}
}

// Generate builds a dataset of roughly n vertices with the topology of kind.
// Weighted graphs carry uniform(1,10) weights for SSSP.
func Generate(kind DatasetKind, n int, seed int64, weighted bool) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("graphproc: dataset size %d too small", n)
	}
	r := rand.New(rand.NewSource(seed))
	var edges [][2]int32
	switch kind {
	case DatasetRMAT:
		edges = rmatEdges(r, n, 8*n)
	case DatasetUniform:
		edges = uniformEdges(r, n, 8*n)
	case DatasetLattice:
		edges = latticeEdges(n)
		n = latticeSide(n) * latticeSide(n)
	case DatasetSmallWorld:
		edges = smallWorldEdges(r, n, 4, 0.05)
	default:
		return nil, fmt.Errorf("graphproc: unknown dataset kind %d", kind)
	}
	var weights []float32
	if weighted {
		weights = make([]float32, len(edges))
		for i := range weights {
			weights[i] = 1 + float32(r.Float64()*9)
		}
	}
	return FromEdges(kind.String(), n, edges, weights)
}

// rmatEdges samples edges with the R-MAT recursive partitioning
// (a=0.57,b=0.19,c=0.19,d=0.05), giving a power-law degree distribution.
func rmatEdges(r *rand.Rand, n, m int) [][2]int32 {
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	size := 1 << bits
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		src, dst := 0, 0
		for b := 0; b < bits; b++ {
			u := r.Float64()
			switch {
			case u < 0.57: // a: top-left
			case u < 0.76: // b: top-right
				dst |= 1 << b
			case u < 0.95: // c: bottom-left
				src |= 1 << b
			default: // d: bottom-right
				src |= 1 << b
				dst |= 1 << b
			}
		}
		if src < n && dst < n {
			edges = append(edges, [2]int32{int32(src), int32(dst)})
		}
		_ = size
	}
	return edges
}

// uniformEdges samples m uniformly random edges.
func uniformEdges(r *rand.Rand, n, m int) [][2]int32 {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	return edges
}

// latticeSide returns the grid side for ~n vertices.
func latticeSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// latticeEdges builds a 4-connected 2D grid (both directions per link).
func latticeEdges(n int) [][2]int32 {
	side := latticeSide(n)
	var edges [][2]int32
	at := func(x, y int) int32 { return int32(y*side + x) }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				edges = append(edges, [2]int32{at(x, y), at(x+1, y)}, [2]int32{at(x+1, y), at(x, y)})
			}
			if y+1 < side {
				edges = append(edges, [2]int32{at(x, y), at(x, y+1)}, [2]int32{at(x, y+1), at(x, y)})
			}
		}
	}
	return edges
}

// smallWorldEdges builds a ring lattice with k neighbors per side plus
// random shortcuts with probability beta per edge.
func smallWorldEdges(r *rand.Rand, n, k int, beta float64) [][2]int32 {
	var edges [][2]int32
	for v := 0; v < n; v++ {
		for d := 1; d <= k; d++ {
			u := (v + d) % n
			if r.Float64() < beta {
				u = r.Intn(n)
			}
			edges = append(edges, [2]int32{int32(v), int32(u)}, [2]int32{int32(u), int32(v)})
		}
	}
	return edges
}
