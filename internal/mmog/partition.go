package mmog

import (
	"math"
	"slices"
)

// Partitioner splits a world across servers and reports per-server load.
type Partitioner interface {
	// Name identifies the technique.
	Name() string
	// Loads returns the per-server interaction load for the world when split
	// over servers servers. The returned slice is owned by s: it stays valid
	// only until the next Loads call with the same scratch.
	Loads(w *World, servers int, s *PartitionScratch) []float64
}

// nearestArea returns the index of the point of interest closest to (x, y);
// the first one wins ties.
func nearestArea(pois [][2]float64, x, y float64) int {
	best, bestD := 0, math.Inf(1)
	for p, poi := range pois {
		dx, dy := x-poi[0], y-poi[1]
		if d := dx*dx + dy*dy; d < bestD {
			bestD = d
			best = p
		}
	}
	return best
}

// InteractionRadius is the distance within which two actionable entities
// interact (and thus cost simulation work).
const InteractionRadius = 50.0

// pairLoad computes the interaction load of a group of entity indices into
// w: the number of actionable pairs within the interaction radius — the
// quadratic term that limits MMOG scalability — plus a linear per-entity
// baseline (movement, state updates).
func pairLoad(w *World, idxs []int32) float64 {
	load := 0.0
	for a := 0; a < len(idxs); a++ {
		i := idxs[a]
		if !w.Actionable[i] {
			continue
		}
		xi, yi := w.X[i], w.Y[i]
		for b := a + 1; b < len(idxs); b++ {
			j := idxs[b]
			if !w.Actionable[j] {
				continue
			}
			dx := xi - w.X[j]
			dy := yi - w.Y[j]
			if dx*dx+dy*dy <= InteractionRadius*InteractionRadius {
				load++
			}
		}
	}
	return load + float64(len(idxs))*0.1
}

// PartitionScratch holds the reusable buffers of the partitioners. A zero
// PartitionScratch is ready to use; buffers grow to the high-water mark of
// entities/bins/shards and are then reused, so a steady-state tick allocates
// nothing.
type PartitionScratch struct {
	bin        []int32 // per-entity bin id
	counts     []int32 // per-bin entity count
	cursor     []int32 // per-bin write cursor (ends after the scatter)
	order      []int32 // entity indices grouped by bin, stable within a bin
	shardStart []int32 // per-shard [start, end) ranges into order
	shardEnd   []int32
	shardLoads []float64
	shardOrder []int
	loads      []float64
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// groupByBin counting-sorts entity indices by s.bin into s.order: bins are
// contiguous and entities keep ascending index order within a bin. nb is the
// bin count; s.bin and s.counts must already be filled.
func (s *PartitionScratch) groupByBin(n, nb int) {
	s.cursor = growInt32(s.cursor, nb)
	start := int32(0)
	for b := 0; b < nb; b++ {
		s.cursor[b] = start
		start += s.counts[b]
	}
	s.order = growInt32(s.order, n)
	for i := 0; i < n; i++ {
		b := s.bin[i]
		s.order[s.cursor[b]] = int32(i)
		s.cursor[b]++
	}
	// s.cursor[b] is now the end offset of bin b; its start is end-counts[b].
}

// ZonePartitioner is classic static spatial zoning: the world is cut into a
// grid of equal zones, each zone pinned to a server (round-robin when zones
// exceed servers).
type ZonePartitioner struct{}

// Name implements Partitioner.
func (ZonePartitioner) Name() string { return "zones" }

// Loads implements Partitioner.
func (ZonePartitioner) Loads(w *World, servers int, s *PartitionScratch) []float64 {
	if servers < 1 {
		servers = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(servers))))
	cell := w.Size / float64(side)
	nb := side * side
	n := w.Len()
	s.bin = growInt32(s.bin, n)
	s.counts = growInt32(s.counts, nb)
	for b := range s.counts {
		s.counts[b] = 0
	}
	for i := 0; i < n; i++ {
		zx := int(w.X[i] / cell)
		zy := int(w.Y[i] / cell)
		if zx >= side {
			zx = side - 1
		}
		if zy >= side {
			zy = side - 1
		}
		b := int32(zy*side + zx)
		s.bin[i] = b
		s.counts[b]++
	}
	s.groupByBin(n, nb)
	s.loads = growF64(s.loads, servers)
	for i := range s.loads {
		s.loads[i] = 0
	}
	for b := 0; b < nb; b++ {
		end := s.cursor[b]
		s.loads[b%servers] += pairLoad(w, s.order[end-s.counts[b]:end])
	}
	return s.loads
}

// aosShardCap is the AoS area population cap: larger areas shard into chunks
// of this size.
const aosShardCap = 80

// AoSPartitioner is the Area-of-Simulation technique: simulation areas form
// around points of interest and are assigned to servers by load (longest
// processing time first), decoupling load placement from static geography.
type AoSPartitioner struct{}

// Name implements Partitioner.
func (AoSPartitioner) Name() string { return "area-of-simulation" }

// Loads implements Partitioner. Each entity joins the area of its nearest
// POI; an area larger than aosShardCap is split into chunks, since inside one
// area entities are interchangeable (same interest) and AoS can shard them,
// paying a 5% cross-shard synchronization overhead per shard. The shards are
// then placed on servers longest first.
func (AoSPartitioner) Loads(w *World, servers int, s *PartitionScratch) []float64 {
	if servers < 1 {
		servers = 1
	}
	n := w.Len()
	nb := len(w.POIs)
	s.bin = growInt32(s.bin, n)
	s.counts = growInt32(s.counts, nb)
	for b := range s.counts {
		s.counts[b] = 0
	}
	for i := 0; i < n; i++ {
		best := nearestArea(w.POIs, w.X[i], w.Y[i])
		s.bin[i] = int32(best)
		s.counts[best]++
	}
	s.groupByBin(n, nb)
	// Chunk each area into shards of at most aosShardCap entities, in area
	// order.
	s.shardStart = s.shardStart[:0]
	s.shardEnd = s.shardEnd[:0]
	for b := 0; b < nb; b++ {
		end := s.cursor[b]
		a := end - s.counts[b]
		for end-a > aosShardCap {
			s.shardStart = append(s.shardStart, a)
			s.shardEnd = append(s.shardEnd, a+aosShardCap)
			a += aosShardCap
		}
		if end-a > 0 {
			s.shardStart = append(s.shardStart, a)
			s.shardEnd = append(s.shardEnd, end)
		}
	}
	ns := len(s.shardStart)
	s.shardLoads = growF64(s.shardLoads, ns)
	for i := 0; i < ns; i++ {
		s.shardLoads[i] = pairLoad(w, s.order[s.shardStart[i]:s.shardEnd[i]]) * 1.05
	}
	return placeLPT(s.shardLoads, servers, s)
}

// placeLPT assigns shard loads to servers longest first, each to the
// currently least-loaded server, and returns the per-server loads (owned by
// s). The descending selection sort and its unstable swaps fix the order of
// equal-load shards, and with it every AoS load path's result bits.
func placeLPT(shardLoads []float64, servers int, s *PartitionScratch) []float64 {
	ns := len(shardLoads)
	s.shardOrder = growInts(s.shardOrder, ns)
	for i := range s.shardOrder {
		s.shardOrder[i] = i
	}
	for i := 0; i < ns; i++ {
		maxJ := i
		for j := i + 1; j < ns; j++ {
			if shardLoads[s.shardOrder[j]] > shardLoads[s.shardOrder[maxJ]] {
				maxJ = j
			}
		}
		s.shardOrder[i], s.shardOrder[maxJ] = s.shardOrder[maxJ], s.shardOrder[i]
	}
	s.loads = growF64(s.loads, servers)
	for i := range s.loads {
		s.loads[i] = 0
	}
	for _, idx := range s.shardOrder {
		minS := 0
		for srv := 1; srv < servers; srv++ {
			if s.loads[srv] < s.loads[minS] {
				minS = srv
			}
		}
		s.loads[minS] += shardLoads[idx]
	}
	return s.loads
}

// aosIndex is the Area-of-Simulation shard structure of a growing world. An
// entity's area (its nearest POI) does not depend on the world size or the
// server count, and an area's aosShardCap-entity shards are fixed once full.
// So each area keeps its members in entity order and, per member, the
// actionable pairs within the interaction radius among the members of its
// shard up to and including it. The shard loads of any prefix of the world
// then cost no pair tests.
type aosIndex struct {
	members [][]int32  // per area: entity indices, ascending
	pairs   [][]uint32 // per area: cumulative in-shard pair count per member
	n       int        // entities indexed
}

// extend indexes the entities of w not indexed yet.
func (x *aosIndex) extend(w *World) {
	if x.members == nil {
		x.members = make([][]int32, len(w.POIs))
		x.pairs = make([][]uint32, len(w.POIs))
	}
	for ; x.n < w.Len(); x.n++ {
		i := x.n
		a := nearestArea(w.POIs, w.X[i], w.Y[i])
		m := x.members[a]
		pos := len(m)
		shard := pos - pos%aosShardCap
		var c uint32
		if pos > shard {
			c = x.pairs[a][pos-1]
		}
		if w.Actionable[i] {
			xi, yi := w.X[i], w.Y[i]
			for _, j := range m[shard:] {
				if !w.Actionable[j] {
					continue
				}
				dx := w.X[j] - xi
				dy := w.Y[j] - yi
				if dx*dx+dy*dy <= InteractionRadius*InteractionRadius {
					c++
				}
			}
		}
		x.members[a] = append(m, int32(i))
		x.pairs[a] = append(x.pairs[a], c)
	}
}

// shardLoads appends to dst the AoS shard loads of the first n indexed
// entities, in the area and shard order AoSPartitioner.Loads builds, with
// the same bits as pairLoad(shard) * 1.05.
func (x *aosIndex) shardLoads(dst []float64, n int) []float64 {
	for a, m := range x.members {
		k, _ := slices.BinarySearch(m, int32(n)) // members below n
		for start := 0; start < k; start += aosShardCap {
			end := min(start+aosShardCap, k)
			dst = append(dst, (float64(x.pairs[a][end-1])+float64(end-start)*0.1)*1.05)
		}
	}
	return dst
}

// MirrorPartitioner is AoS plus Mirror-style computation offloading: a cloud
// mirror absorbs OffloadFraction of each server's interaction load at the
// price of added latency (modeled outside the load metric).
type MirrorPartitioner struct {
	OffloadFraction float64
}

// Name implements Partitioner.
func (m MirrorPartitioner) Name() string { return "mirror" }

// Loads implements Partitioner: the AoS loads minus the offloaded fraction.
func (m MirrorPartitioner) Loads(w *World, servers int, s *PartitionScratch) []float64 {
	return m.offload(AoSPartitioner{}.Loads(w, servers, s))
}

// offload scales per-server loads in place by the share the mirror leaves
// on the servers: 1 - OffloadFraction, the fraction clamped to [0, 0.9].
func (m MirrorPartitioner) offload(loads []float64) []float64 {
	frac := min(max(m.OffloadFraction, 0), 0.9)
	for i := range loads {
		loads[i] *= 1 - frac
	}
	return loads
}
