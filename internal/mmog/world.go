// Package mmog simulates Massive Multiplayer Online Game ecosystems and the
// studies of the paper's Table 6: virtual-world scalability (static zoning
// versus the Area-of-Simulation technique, and Mirror-style computation
// offloading), player-population dynamics (MMORPG diurnal cycles, MOBA
// match-based play), implicit social networks mined from co-play, toxicity
// detection, and dynamic resource provisioning for game servers.
package mmog

import (
	"fmt"
	"math/rand"
	"slices"
)

// World is a square virtual world of side Size with entities clustered
// around points of interest — the workload shape the RTSenv study found:
// multiple points of interest, tens of entities under careful management in
// some, hundreds under casual management in others. Entity fields live in
// parallel slices (struct of arrays), so the per-tick hot loops (wander,
// binning, pair interaction) stream through dense float64 arrays.
// Actionable entities (units in combat) generate interaction load.
type World struct {
	Size       float64
	X, Y       []float64
	Actionable []bool
	POIs       [][2]float64
}

// Len returns the entity count.
func (w *World) Len() int { return len(w.X) }

// prefix returns a view of the world's first n entities.
func (w *World) prefix(n int) *World {
	return &World{Size: w.Size, X: w.X[:n], Y: w.Y[:n], Actionable: w.Actionable[:n], POIs: w.POIs}
}

// WorldConfig parameterizes world generation.
type WorldConfig struct {
	Size float64
	// POIs is the number of points of interest (RTS battles, towns).
	POIs int
	// Entities is the total entity count.
	Entities int
	// Spread is the Gaussian scatter of entities around their POI.
	Spread float64
	// HotFraction is the fraction of entities concentrated in the single
	// hottest POI (battle clustering).
	HotFraction float64
	Seed        int64
}

// DefaultWorldConfig is a 1000x1000 world with 5 POIs.
func DefaultWorldConfig(entities int) WorldConfig {
	return WorldConfig{Size: 1000, POIs: 5, Entities: entities, Spread: 30, HotFraction: 0.4, Seed: 1}
}

// worldGen draws a world entity by entity: the POIs first, then each entity
// in order. The world of n entities is therefore the first n entities of any
// larger world with the same seed, which lets a search over world sizes grow
// one world instead of regenerating it per size.
type worldGen struct {
	cfg WorldConfig
	r   *rand.Rand
	w   World
}

func newWorldGen(cfg WorldConfig) *worldGen {
	g := &worldGen{cfg: cfg, r: rand.New(rand.NewSource(cfg.Seed)), w: World{Size: cfg.Size}}
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

// GenerateWorld builds a world with clustered entities.
func GenerateWorld(cfg WorldConfig) *World {
	g := newWorldGen(cfg)
	g.grow(cfg.Entities)
	return &g.w
}

// scalabilityWorld is the seeded default world a scalability search probes
// at many sizes. It grows one world on demand instead of generating each
// size afresh (the world of n entities is a prefix of any larger one), and
// answers AoS and Mirror probes from an aosIndex, so a probe costs
// O(shards²) rather than O(n·aosShardCap) pair tests.
type scalabilityWorld struct {
	gen     *worldGen
	aos     aosIndex
	scratch PartitionScratch
}

func newScalabilityWorld(seed int64) *scalabilityWorld {
	cfg := DefaultWorldConfig(0)
	cfg.Seed = seed
	return &scalabilityWorld{gen: newWorldGen(cfg)}
}

// loads returns p's per-server loads on the world's first n entities: the
// same bits p.Loads returns on GenerateWorld of n entities. The slice is
// owned by the world's scratch and valid until the next call.
func (sw *scalabilityWorld) loads(p Partitioner, n, servers int) []float64 {
	sw.gen.grow(n)
	switch p := p.(type) {
	case AoSPartitioner:
		return sw.aosLoads(n, servers)
	case MirrorPartitioner:
		return p.offload(sw.aosLoads(n, servers))
	}
	return p.Loads(sw.gen.w.prefix(n), servers, &sw.scratch)
}

// aosLoads is AoSPartitioner.Loads on the first n entities, read from
// the index.
func (sw *scalabilityWorld) aosLoads(n, servers int) []float64 {
	sw.aos.extend(&sw.gen.w)
	s := &sw.scratch
	s.shardLoads = sw.aos.shardLoads(s.shardLoads[:0], n)
	return placeLPT(s.shardLoads, max(servers, 1), s)
}

// maxPlayers finds the largest entity count (by doubling then bisecting)
// for which p's maximum per-server load stays within budget.
func (sw *scalabilityWorld) maxPlayers(p Partitioner, servers int, budget float64) int {
	return maxFitting(func(n int) bool { return maxOf(sw.loads(p, n, servers)) <= budget })
}

// maxFitting returns the largest n that fits, probing 64, 128, ... until
// one does not fit (or 2^20 is reached) and then bisecting the last gap.
func maxFitting(fits func(n int) bool) int {
	lo, hi := 0, 64
	for fits(hi) && hi < 1<<20 {
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ScalabilityRow is one line of the AoS scalability experiment.
type ScalabilityRow struct {
	Technique  string
	Servers    int
	MaxPlayers int
}

// RunScalabilityStudy compares zoning, AoS, and Mirror at several server
// counts under a fixed per-server load budget.
func RunScalabilityStudy(serverCounts []int, budget float64, seed int64) []ScalabilityRow {
	var rows []ScalabilityRow
	world := newScalabilityWorld(seed)
	parts := []Partitioner{ZonePartitioner{}, AoSPartitioner{}, MirrorPartitioner{OffloadFraction: 0.5}}
	for _, servers := range serverCounts {
		for _, p := range parts {
			rows = append(rows, ScalabilityRow{
				Technique:  p.Name(),
				Servers:    servers,
				MaxPlayers: world.maxPlayers(p, servers, budget),
			})
		}
	}
	return rows
}

// String renders a row.
func (r ScalabilityRow) String() string {
	return fmt.Sprintf("%-20s servers=%-3d max players=%d", r.Technique, r.Servers, r.MaxPlayers)
}
