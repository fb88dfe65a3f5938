package mmog

import (
	"math"
	"testing"

	"atlarge/internal/sim"
)

// refEntity and refWorld are the array-of-structs world that the
// struct-of-arrays World replaced, kept as the form the reference
// partitioners and runWorldSimRef work on.
type refEntity struct {
	ID int
	X  float64
	Y  float64
	// Actionable entities (units in combat) generate interaction load.
	Actionable bool
}

type refWorld struct {
	Size     float64
	Entities []refEntity
	POIs     [][2]float64
}

// newRefWorld copies w into array-of-structs form; entity i gets ID i+1.
func newRefWorld(w *World) *refWorld {
	rw := &refWorld{Size: w.Size, Entities: make([]refEntity, w.Len()), POIs: w.POIs}
	for i := range rw.Entities {
		rw.Entities[i] = refEntity{ID: i + 1, X: w.X[i], Y: w.Y[i], Actionable: w.Actionable[i]}
	}
	return rw
}

// refPairLoad is the allocating pair load over a []refEntity.
func refPairLoad(entities []refEntity) float64 {
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

// refZoneLoads is the allocating static-zoning body.
func refZoneLoads(w *refWorld, servers int) []float64 {
	if servers < 1 {
		servers = 1
	}
	// Grid side: ceil(sqrt(servers)) zones per axis.
	side := int(math.Ceil(math.Sqrt(float64(servers))))
	cell := w.Size / float64(side)
	zones := make([][]refEntity, side*side)
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
		loads[i%servers] += refPairLoad(z)
	}
	return loads
}

// refAoSLoads is the allocating Area-of-Simulation body, with its own
// selection sort and LPT placement.
func refAoSLoads(w *refWorld, servers int) []float64 {
	if servers < 1 {
		servers = 1
	}
	areas := make([][]refEntity, len(w.POIs))
	for _, e := range w.Entities {
		best := nearestArea(w.POIs, e.X, e.Y)
		areas[best] = append(areas[best], e)
	}
	var shards [][]refEntity
	for _, a := range areas {
		for len(a) > aosShardCap {
			shards = append(shards, a[:aosShardCap])
			a = a[aosShardCap:]
		}
		if len(a) > 0 {
			shards = append(shards, a)
		}
	}
	loads := make([]float64, servers)
	shardLoads := make([]float64, len(shards))
	for i, sh := range shards {
		shardLoads[i] = refPairLoad(sh) * 1.05
	}
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		maxJ := i
		for j := i + 1; j < len(order); j++ {
			if shardLoads[order[j]] > shardLoads[order[maxJ]] {
				maxJ = j
			}
		}
		order[i], order[maxJ] = order[maxJ], order[i]
	}
	for _, idx := range order {
		minS := 0
		for s := 1; s < servers; s++ {
			if loads[s] < loads[minS] {
				minS = s
			}
		}
		loads[minS] += shardLoads[idx]
	}
	return loads
}

// refLoads dispatches a built-in partitioner to its reference body.
func refLoads(p Partitioner, w *refWorld, servers int) []float64 {
	switch p := p.(type) {
	case ZonePartitioner:
		return refZoneLoads(w, servers)
	case AoSPartitioner:
		return refAoSLoads(w, servers)
	case MirrorPartitioner:
		frac := min(max(p.OffloadFraction, 0), 0.9)
		loads := refAoSLoads(w, servers)
		for i := range loads {
			loads[i] *= 1 - frac
		}
		return loads
	}
	panic("no reference for partitioner " + p.Name())
}

// runWorldSimRef is the pre-rewrite RunWorldSim, kept as the parity
// reference: array-of-structs world, per-tick allocating loads, chained
// self-rescheduling tick events. WorldSim must reproduce its results
// bit-for-bit.
func runWorldSimRef(cfg WorldSimConfig) (*WorldSimResult, error) {
	if cfg.Partitioner == nil {
		cfg.Partitioner = AoSPartitioner{}
	}
	tickSec := cfg.TickSeconds
	if tickSec <= 0 {
		tickSec = 1
	}
	wander := cfg.Wander
	if wander <= 0 {
		wander = 2
	}
	cfg.World.Seed = cfg.Seed
	w := newRefWorld(GenerateWorld(cfg.World))
	res := &WorldSimResult{Entities: len(w.Entities), Servers: cfg.Servers}

	k := sim.NewKernel(cfg.Seed)
	var rec sim.Recorder
	move := k.Rand("mmog/move")
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= w.Size {
			return w.Size - 1e-9
		}
		return v
	}
	var tick sim.Handler
	ticked := 0
	tick = func(k *sim.Kernel) {
		for i := range w.Entities {
			e := &w.Entities[i]
			px, py := nearestPOI(w, e.X, e.Y)
			e.X = clamp(e.X + move.NormFloat64()*wander + 0.02*(px-e.X))
			e.Y = clamp(e.Y + move.NormFloat64()*wander + 0.02*(py-e.Y))
		}
		loads := refLoads(cfg.Partitioner, w, cfg.Servers)
		maxL, sum := 0.0, 0.0
		for _, l := range loads {
			sum += l
			if l > maxL {
				maxL = l
			}
		}
		mean := sum / float64(len(loads))
		now := k.Now()
		rec.Record("max_load", now, maxL)
		rec.Record("mean_load", now, mean)
		if mean > 0 {
			rec.Record("imbalance", now, maxL/mean)
		} else {
			rec.Record("imbalance", now, 1)
		}
		ticked++
		if ticked < cfg.Ticks {
			k.After(sim.Duration(tickSec), "world-tick", tick)
		}
	}
	k.At(0, "world-tick", tick)
	if err := k.Run(); err != nil {
		return nil, err
	}
	res.Ticks = ticked
	res.PeakLoad = maxOf(rec.Values("max_load"))
	res.MeanMaxLoad = refMean(rec.Values("max_load"))
	res.MeanLoad = refMean(rec.Values("mean_load"))
	res.Imbalance = refMean(rec.Values("imbalance"))
	return res, nil
}

// TestLoadsMatchReference pins every built-in partitioner to its allocating
// reference body, bit for bit, including scratch reuse across calls.
func TestLoadsMatchReference(t *testing.T) {
	parts := []Partitioner{
		ZonePartitioner{},
		AoSPartitioner{},
		MirrorPartitioner{OffloadFraction: 0.5},
		MirrorPartitioner{OffloadFraction: -1}, // clamps to 0
		MirrorPartitioner{OffloadFraction: 2},  // clamps to 0.9
	}
	var scratch PartitionScratch // shared across all cases: reuse must not leak state
	for _, seed := range []int64{1, 9, 424242} {
		for _, entities := range []int{0, 1, 50, 900} {
			cfg := DefaultWorldConfig(entities)
			cfg.Seed = seed
			w := GenerateWorld(cfg)
			rw := newRefWorld(w)
			for _, p := range parts {
				for _, servers := range []int{1, 3, 8, 16} {
					want := refLoads(p, rw, servers)
					got := p.Loads(w, servers, &scratch)
					if len(got) != len(want) {
						t.Fatalf("%s servers=%d: len %d != %d", p.Name(), servers, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s seed=%d n=%d servers=%d: load[%d] %v != %v",
								p.Name(), seed, entities, servers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestWorldSimMatchesReference pins the SoA WorldSim to the pre-rewrite
// implementation: exact result equality across partitioners, seeds, and a
// fractional tick spacing.
func TestWorldSimMatchesReference(t *testing.T) {
	cases := []WorldSimConfig{
		DefaultWorldSimConfig(300, 8),
		DefaultWorldSimConfig(200, 4),
		{
			World:       DefaultWorldConfig(250),
			Partitioner: ZonePartitioner{},
			Servers:     9,
			Ticks:       25,
			TickSeconds: 0.25,
			Wander:      3,
			Seed:        77,
		},
		{
			World:       DefaultWorldConfig(150),
			Partitioner: MirrorPartitioner{OffloadFraction: 0.4},
			Servers:     5,
			Ticks:       40,
			TickSeconds: 1.5,
			Seed:        1234,
		},
	}
	cases[1].Seed = 99
	for i, cfg := range cases {
		want, err := runWorldSimRef(cfg)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		got, err := RunWorldSim(cfg)
		if err != nil {
			t.Fatalf("case %d: soa: %v", i, err)
		}
		if *got != *want {
			t.Fatalf("case %d: result diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// customTestPartitioner is a partitioner defined outside the package's
// built-ins, wrapping AoSPartitioner.
type customTestPartitioner struct{}

func (customTestPartitioner) Name() string { return "custom-test" }

func (customTestPartitioner) Loads(w *World, servers int, s *PartitionScratch) []float64 {
	return AoSPartitioner{}.Loads(w, servers, s)
}

// TestWorldSimCustomPartitioner pins that WorldSim drives any Partitioner,
// not only the built-ins: the wrapper reproduces the AoS reference run.
func TestWorldSimCustomPartitioner(t *testing.T) {
	cfg := DefaultWorldSimConfig(200, 6)
	cfg.Ticks = 10
	want, err := runWorldSimRef(cfg) // AoS partitioner, reference loop
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partitioner = customTestPartitioner{}
	got, err := RunWorldSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("custom partitioner diverged:\n got %+v\nwant %+v", got, want)
	}
}

// nearestPOI returns the closest point of interest to (x, y): the
// reference form of nearestArea.
func nearestPOI(w *refWorld, x, y float64) (float64, float64) {
	bx, by, bestD := 0.0, 0.0, math.Inf(1)
	for _, poi := range w.POIs {
		dx, dy := x-poi[0], y-poi[1]
		if d := dx*dx + dy*dy; d < bestD {
			bestD = d
			bx, by = poi[0], poi[1]
		}
	}
	return bx, by
}

// refMean is the mean WorldSim aggregated with before it used stats.Mean.
func refMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
