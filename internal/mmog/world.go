// Package mmog simulates Massive Multiplayer Online Game ecosystems and the
// studies of the paper's Table 6: virtual-world scalability (static zoning
// versus the Area-of-Simulation technique, and Mirror-style computation
// offloading), player-population dynamics (MMORPG diurnal cycles, MOBA
// match-based play), implicit social networks mined from co-play, toxicity
// detection, and dynamic resource provisioning for game servers.
package mmog

import (
	"fmt"
	"math"
)

// Entity is a player avatar or game unit at a 2D position.
type Entity struct {
	ID int
	X  float64
	Y  float64
	// Actionable entities (units in combat) generate interaction load.
	Actionable bool
}

// World is a square virtual world of side Size with entities clustered
// around points of interest — the workload shape the RTSenv study found:
// multiple points of interest, tens of entities under careful management in
// some, hundreds under casual management in others.
type World struct {
	Size     float64
	Entities []Entity
	POIs     [][2]float64
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

// GenerateWorld builds a world with clustered entities.
func GenerateWorld(cfg WorldConfig) *World {
	w := GenerateWorldSoA(cfg)
	return &World{Size: w.Size, Entities: w.entities(nil), POIs: w.POIs}
}

// InteractionRadius is the distance within which two actionable entities
// interact (and thus cost simulation work).
const InteractionRadius = 50.0

// pairLoad computes the interaction load of a set of entities: the number of
// actionable pairs within the interaction radius. This is the quadratic term
// that limits MMOG scalability.
func pairLoad(entities []Entity) float64 {
	load := 0.0
	for i := 0; i < len(entities); i++ {
		if !entities[i].Actionable {
			continue
		}
		for j := i + 1; j < len(entities); j++ {
			if !entities[j].Actionable {
				continue
			}
			dx := entities[i].X - entities[j].X
			dy := entities[i].Y - entities[j].Y
			if dx*dx+dy*dy <= InteractionRadius*InteractionRadius {
				load++
			}
		}
	}
	// Linear baseline cost per entity (movement, state updates).
	return load + float64(len(entities))*0.1
}

// Partitioner splits a world across servers and reports per-server load.
type Partitioner interface {
	// Name identifies the technique.
	Name() string
	// Loads returns the per-server interaction load for the world when split
	// over servers servers.
	Loads(w *World, servers int) []float64
}

// ZonePartitioner is classic static spatial zoning: the world is cut into a
// grid of equal zones, each zone pinned to a server (round-robin when zones
// exceed servers).
type ZonePartitioner struct{}

// Name implements Partitioner.
func (ZonePartitioner) Name() string { return "zones" }

// Loads implements Partitioner.
func (ZonePartitioner) Loads(w *World, servers int) []float64 {
	if servers < 1 {
		servers = 1
	}
	// Grid side: ceil(sqrt(servers)) zones per axis.
	side := int(math.Ceil(math.Sqrt(float64(servers))))
	cell := w.Size / float64(side)
	zones := make([][]Entity, side*side)
	for _, e := range w.Entities {
		zx := int(e.X / cell)
		zy := int(e.Y / cell)
		if zx >= side {
			zx = side - 1
		}
		if zy >= side {
			zy = side - 1
		}
		idx := zy*side + zx
		zones[idx] = append(zones[idx], e)
	}
	loads := make([]float64, servers)
	for i, z := range zones {
		loads[i%servers] += pairLoad(z)
	}
	return loads
}

// AoSPartitioner is the Area-of-Simulation technique: simulation areas form
// around points of interest and are assigned to servers by load (longest
// processing time first), decoupling load placement from static geography.
type AoSPartitioner struct{}

// Name implements Partitioner.
func (AoSPartitioner) Name() string { return "area-of-simulation" }

// Loads implements Partitioner.
func (AoSPartitioner) Loads(w *World, servers int) []float64 {
	if servers < 1 {
		servers = 1
	}
	// Assign each entity to its nearest POI; each POI area may further be
	// split into sub-areas when overloaded (the AoS mechanism caps area
	// population by interest, not geography).
	areas := make([][]Entity, len(w.POIs))
	for _, e := range w.Entities {
		best := nearestArea(w.POIs, e.X, e.Y)
		areas[best] = append(areas[best], e)
	}
	// Split any area larger than cap into chunks: inside one area entities
	// are interchangeable (same interest), so AoS can shard them and only
	// pay a small cross-shard synchronization overhead.
	var shards [][]Entity
	for _, a := range areas {
		for len(a) > aosShardCap {
			shards = append(shards, a[:aosShardCap])
			a = a[aosShardCap:]
		}
		if len(a) > 0 {
			shards = append(shards, a)
		}
	}
	shardLoads := make([]float64, len(shards))
	for i, sh := range shards {
		// Cross-shard sync overhead: 5% per shard beyond the first of an area.
		shardLoads[i] = pairLoad(sh) * 1.05
	}
	// LPT assignment of shard loads to servers.
	return placeLPT(shardLoads, servers, &PartitionScratch{})
}

// MirrorPartitioner is AoS plus Mirror-style computation offloading: a cloud
// mirror absorbs OffloadFraction of each server's interaction load at the
// price of added latency (modeled outside the load metric).
type MirrorPartitioner struct {
	OffloadFraction float64
}

// Name implements Partitioner.
func (m MirrorPartitioner) Name() string { return "mirror" }

// Loads implements Partitioner.
func (m MirrorPartitioner) Loads(w *World, servers int) []float64 {
	return m.offload(AoSPartitioner{}.Loads(w, servers))
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
// valid until the next call.
func (sw *scalabilityWorld) loads(p Partitioner, n, servers int) []float64 {
	sw.gen.grow(n)
	switch p := p.(type) {
	case AoSPartitioner:
		return sw.aosLoads(n, servers)
	case MirrorPartitioner:
		return p.offload(sw.aosLoads(n, servers))
	case SoAPartitioner:
		return p.LoadsSoA(sw.gen.w.prefix(n), servers, &sw.scratch)
	}
	w := sw.gen.w.prefix(n)
	return p.Loads(&World{Size: w.Size, Entities: w.entities(nil), POIs: w.POIs}, servers)
}

// aosLoads is AoSPartitioner.LoadsSoA on the first n entities, read from
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

// MaxSupportedPlayers finds the largest entity count (by doubling then
// bisecting) for which the maximum per-server load stays within budget.
func MaxSupportedPlayers(p Partitioner, servers int, budget float64, seed int64) int {
	return newScalabilityWorld(seed).maxPlayers(p, servers, budget)
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
