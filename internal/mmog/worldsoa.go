package mmog

import (
	"math"
	"math/rand"
	"slices"
)

// WorldSoA is the struct-of-arrays representation of a World: entity fields
// live in parallel slices instead of a []Entity, so the per-tick hot loops
// (wander, binning, pair interaction) stream through dense float64 arrays.
// Entity i's implicit ID is i+1, matching GenerateWorld.
type WorldSoA struct {
	Size       float64
	X, Y       []float64
	Actionable []bool
	POIs       [][2]float64
}

// Len returns the entity count.
func (w *WorldSoA) Len() int { return len(w.X) }

// worldGen draws a world entity by entity: the POIs first, then each entity
// in order. The world of n entities is therefore the first n entities of any
// larger world with the same seed, which lets a search over world sizes grow
// one world instead of regenerating it per size.
type worldGen struct {
	cfg WorldConfig
	r   *rand.Rand
	w   WorldSoA
}

func newWorldGen(cfg WorldConfig) *worldGen {
	g := &worldGen{cfg: cfg, r: rand.New(rand.NewSource(cfg.Seed)), w: WorldSoA{Size: cfg.Size}}
	for p := 0; p < cfg.POIs; p++ {
		g.w.POIs = append(g.w.POIs, [2]float64{g.r.Float64() * cfg.Size, g.r.Float64() * cfg.Size})
	}
	return g
}

// grow draws entities until the world holds at least n.
func (g *worldGen) grow(n int) {
	cfg, r, w := &g.cfg, g.r, &g.w
	if more := n - w.Len(); more > 0 {
		w.X = slices.Grow(w.X, more)
		w.Y = slices.Grow(w.Y, more)
		w.Actionable = slices.Grow(w.Actionable, more)
	}
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= cfg.Size {
			return cfg.Size - 1e-9
		}
		return v
	}
	for w.Len() < n {
		var poi [2]float64
		if r.Float64() < cfg.HotFraction {
			poi = w.POIs[0]
		} else {
			poi = w.POIs[r.Intn(len(w.POIs))]
		}
		w.X = append(w.X, clamp(poi[0]+r.NormFloat64()*cfg.Spread))
		w.Y = append(w.Y, clamp(poi[1]+r.NormFloat64()*cfg.Spread))
		w.Actionable = append(w.Actionable, r.Float64() < 0.6)
	}
}

// GenerateWorldSoA builds the world GenerateWorld builds, in
// struct-of-arrays form.
func GenerateWorldSoA(cfg WorldConfig) *WorldSoA {
	g := newWorldGen(cfg)
	g.grow(cfg.Entities)
	return &g.w
}

// prefix returns a view of the world's first n entities.
func (w *WorldSoA) prefix(n int) *WorldSoA {
	return &WorldSoA{Size: w.Size, X: w.X[:n], Y: w.Y[:n], Actionable: w.Actionable[:n], POIs: w.POIs}
}

// entities writes the world's entities into dst, grown to Len, in the
// []Entity form of World.
func (w *WorldSoA) entities(dst []Entity) []Entity {
	dst = slices.Grow(dst[:0], w.Len())[:w.Len()]
	for i := range dst {
		dst[i] = Entity{ID: i + 1, X: w.X[i], Y: w.Y[i], Actionable: w.Actionable[i]}
	}
	return dst
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

// pairLoadIdx is pairLoad over a group of entity indices into a WorldSoA:
// actionable pairs within the interaction radius plus the linear per-entity
// baseline. The pair count is order-insensitive and every subtraction matches
// pairLoad's, so a group holding the same entities produces the identical
// float64.
func pairLoadIdx(w *WorldSoA, idxs []int32) float64 {
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

// PartitionScratch holds the reusable buffers of the SoA partitioning paths.
// A zero PartitionScratch is ready to use; buffers grow to the high-water
// mark of entities/bins/shards and are then reused, so a steady-state tick
// allocates nothing. The slice LoadsSoA returns is owned by the scratch and
// valid until the next LoadsSoA call with the same scratch.
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
// contiguous and entities keep ascending index order within a bin — the same
// order appending to [][]Entity produces. nb is the bin count; s.bin and
// s.counts must already be filled.
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

// SoAPartitioner is a Partitioner with an allocation-free struct-of-arrays
// path. The built-in techniques implement it; WorldSim uses LoadsSoA when
// available and falls back to Loads on a synchronized AoS view otherwise.
type SoAPartitioner interface {
	Partitioner
	// LoadsSoA is Loads over a WorldSoA, reusing scratch buffers. For the
	// same world contents it returns bit-identical per-server loads.
	LoadsSoA(w *WorldSoA, servers int, s *PartitionScratch) []float64
}

// LoadsSoA implements SoAPartitioner: static zoning without the per-call
// [][]Entity allocation.
func (ZonePartitioner) LoadsSoA(w *WorldSoA, servers int, s *PartitionScratch) []float64 {
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
		s.loads[b%servers] += pairLoadIdx(w, s.order[end-s.counts[b]:end])
	}
	return s.loads
}

// aosShardCap is the AoS area population cap: larger areas shard into chunks
// of this size.
const aosShardCap = 80

// LoadsSoA implements SoAPartitioner: Area-of-Simulation without per-call
// area/shard slice allocation. Shard composition, the 5% cross-shard
// overhead, the descending selection sort, and the LPT min-scan replicate
// Loads exactly, so the per-server loads are bit-identical.
func (AoSPartitioner) LoadsSoA(w *WorldSoA, servers int, s *PartitionScratch) []float64 {
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
	// order — the same shard list Loads builds by slicing areas.
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
		s.shardLoads[i] = pairLoadIdx(w, s.order[s.shardStart[i]:s.shardEnd[i]]) * 1.05
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
func (x *aosIndex) extend(w *WorldSoA) {
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
// entities, in the area and shard order LoadsSoA builds, with the same bits
// as pairLoadIdx(shard) * 1.05.
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

// LoadsSoA implements SoAPartitioner: the AoS loads minus the offloaded
// fraction, as in Loads.
func (m MirrorPartitioner) LoadsSoA(w *WorldSoA, servers int, s *PartitionScratch) []float64 {
	return m.offload(AoSPartitioner{}.LoadsSoA(w, servers, s))
}
