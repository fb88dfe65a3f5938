package mmog

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"atlarge/internal/sim"
	"atlarge/internal/stats"
)

// WorldSimConfig parameterizes one event-driven virtual-world run: a
// generated world whose entities drift around their points of interest while
// a partitioner splits the load across game servers.
type WorldSimConfig struct {
	World WorldConfig
	// Partitioner splits the world across servers each tick.
	Partitioner Partitioner
	// Servers is the game-server count.
	Servers int
	// Ticks is the number of world ticks simulated.
	Ticks int
	// TickSeconds is the virtual-time spacing of ticks; 0 means 1s.
	TickSeconds float64
	// Wander is the per-tick Gaussian movement scale; 0 means 2.0.
	Wander float64
	Seed   int64
}

// DefaultWorldSimConfig simulates a mid-size battle-clustered world.
func DefaultWorldSimConfig(entities, servers int) WorldSimConfig {
	return WorldSimConfig{
		World:       DefaultWorldConfig(entities),
		Partitioner: AoSPartitioner{},
		Servers:     servers,
		Ticks:       60,
		TickSeconds: 1,
		Wander:      2,
		Seed:        1,
	}
}

// WorldSimResult aggregates the per-tick per-server load series.
type WorldSimResult struct {
	Entities int
	Servers  int
	Ticks    int
	// PeakLoad is the maximum per-server load observed at any tick — the
	// provisioning-relevant hot-server number.
	PeakLoad float64
	// MeanMaxLoad is the hottest-server load averaged over ticks.
	MeanMaxLoad float64
	// MeanLoad is the per-server load averaged over servers and ticks.
	MeanLoad float64
	// Imbalance is the mean over ticks of (max load / mean load); 1.0 is a
	// perfectly balanced partitioning.
	Imbalance float64
}

// WorldSim is a prepared virtual-world simulation: a generated world,
// a kernel, and the reusable partition scratch. Constructing once and calling
// Tick repeatedly runs the per-tick hot path — wander, binning, pair
// interaction — without allocating, which is what lets one kernel tick 10^6
// entities in bounded memory.
type WorldSim struct {
	cfg     WorldSimConfig
	tickSec float64
	wander  float64
	w       *World
	scratch PartitionScratch
	k       *sim.Kernel
	move    *rand.Rand
	ticked  int
}

// NewWorldSim validates cfg, generates the world, and prepares the kernel.
// The world and scratch buffers are allocated here; Run and Tick reuse them.
func NewWorldSim(cfg WorldSimConfig) (*WorldSim, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("mmog: world sim needs >= 1 server, got %d", cfg.Servers)
	}
	if cfg.Ticks < 1 {
		return nil, fmt.Errorf("mmog: world sim needs >= 1 tick, got %d", cfg.Ticks)
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = AoSPartitioner{}
	}
	s := &WorldSim{cfg: cfg, tickSec: cfg.TickSeconds, wander: cfg.Wander}
	if s.tickSec <= 0 {
		s.tickSec = 1
	}
	if s.wander <= 0 {
		s.wander = 2
	}
	cfg.World.Seed = cfg.Seed
	s.w = GenerateWorld(cfg.World)
	s.k = sim.NewKernel(cfg.Seed)
	s.move = s.k.Rand("mmog/move")
	return s, nil
}

// Kernel returns the simulation kernel, so callers can attach tracers or a
// horizon before Run.
func (s *WorldSim) Kernel() *sim.Kernel { return s.k }

// World returns the world state. The simulation owns it: each Tick moves
// the entities in place, so its slices change under the caller.
func (s *WorldSim) World() *World { return s.w }

// Tick advances the world one tick: every entity takes a Gaussian step
// gently pulled back toward its nearest POI so battle clusters persist
// instead of diffusing into uniform noise, then the partitioner splits the
// load. It returns the hottest-server and mean per-server load. Steady-state
// Tick is allocation-free for the built-in partitioners.
func (s *WorldSim) Tick() (maxLoad, meanLoad float64) {
	w := s.w
	size := w.Size
	for i := range w.X {
		poi := w.POIs[nearestArea(w.POIs, w.X[i], w.Y[i])]
		x := w.X[i] + s.move.NormFloat64()*s.wander + 0.02*(poi[0]-w.X[i])
		y := w.Y[i] + s.move.NormFloat64()*s.wander + 0.02*(poi[1]-w.Y[i])
		if x < 0 {
			x = 0
		} else if x >= size {
			x = size - 1e-9
		}
		if y < 0 {
			y = 0
		} else if y >= size {
			y = size - 1e-9
		}
		w.X[i] = x
		w.Y[i] = y
	}
	loads := s.cfg.Partitioner.Loads(w, s.cfg.Servers, &s.scratch)
	maxL, sum := 0.0, 0.0
	for _, l := range loads {
		sum += l
		if l > maxL {
			maxL = l
		}
	}
	return maxL, sum / float64(len(loads))
}

// Run executes the configured number of ticks on the kernel and aggregates
// the per-tick load series. Ticks are batch-scheduled up front (Reserve +
// At + AfterEach), so the queue never grows during the run.
func (s *WorldSim) Run() (*WorldSimResult, error) {
	var rec sim.Recorder
	tick := func(k *sim.Kernel) {
		maxL, mean := s.Tick()
		now := k.Now()
		rec.Record("max_load", now, maxL)
		rec.Record("mean_load", now, mean)
		if mean > 0 {
			rec.Record("imbalance", now, maxL/mean)
		} else {
			rec.Record("imbalance", now, 1)
		}
		s.ticked++
	}
	s.k.Reserve(s.cfg.Ticks)
	s.k.At(0, "world-tick", tick)
	s.k.AfterEach(sim.Duration(s.tickSec), s.cfg.Ticks-1, "world-tick", tick)
	if err := s.k.Run(); err != nil {
		return nil, fmt.Errorf("mmog: world sim: %w", err)
	}
	res := &WorldSimResult{Entities: s.w.Len(), Servers: s.cfg.Servers}
	res.Ticks = s.ticked
	res.PeakLoad = maxOf(rec.Values("max_load"))
	res.MeanMaxLoad = stats.Mean(rec.Values("max_load"))
	res.MeanLoad = stats.Mean(rec.Values("mean_load"))
	res.Imbalance = stats.Mean(rec.Values("imbalance"))
	return res, nil
}

// RunWorldSim executes the world on the shared simulation kernel: world
// generation happens at setup, then every tick is a scheduled event in which
// entities take a Gaussian step pulled back toward their nearest point of
// interest and the partitioner's per-server loads are recorded. Movement
// draws come from the kernel's named RNG streams, so runs are deterministic
// per seed and independent of any other model sharing the kernel seed.
func RunWorldSim(cfg WorldSimConfig) (*WorldSimResult, error) {
	s, err := NewWorldSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// partitionerFactories maps canonical partitioner names to constructors; the
// offload fraction only matters for the mirror technique.
var partitionerFactories = map[string]func(offload float64) Partitioner{
	"zones":              func(float64) Partitioner { return ZonePartitioner{} },
	"area-of-simulation": func(float64) Partitioner { return AoSPartitioner{} },
	"mirror": func(offload float64) Partitioner {
		if offload <= 0 {
			offload = 0.5
		}
		return MirrorPartitioner{OffloadFraction: offload}
	},
}

// partitionerAliases folds convenient spellings onto canonical names.
var partitionerAliases = map[string]string{
	"zone":   "zones",
	"aos":    "area-of-simulation",
	"mirror": "mirror",
}

// PartitionerByName resolves a partitioning technique case-insensitively,
// accepting the canonical names and common aliases ("aos", "zone"). The
// offload fraction configures the mirror technique and is ignored otherwise.
func PartitionerByName(name string, offload float64) (Partitioner, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := partitionerAliases[key]; ok {
		key = canon
	}
	if f, ok := partitionerFactories[key]; ok {
		return f(offload), nil
	}
	return nil, fmt.Errorf("mmog: unknown partitioner %q (known: %s)",
		name, strings.Join(PartitionerNames(), ", "))
}

// PartitionerNames returns the canonical partitioner names, sorted.
func PartitionerNames() []string {
	out := make([]string, 0, len(partitionerFactories))
	for name := range partitionerFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
