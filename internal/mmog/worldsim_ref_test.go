package mmog

import (
	"math"
	"testing"

	"atlarge/internal/sim"
)

// runWorldSimRef is the pre-SoA RunWorldSim, kept verbatim as the parity
// reference: array-of-structs world, per-tick allocating Loads, chained
// self-rescheduling tick events. The SoA rewrite must reproduce its results
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
	w := GenerateWorld(cfg.World)
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
		loads := cfg.Partitioner.Loads(w, cfg.Servers)
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
	res.MeanMaxLoad = meanOf(rec.Values("max_load"))
	res.MeanLoad = meanOf(rec.Values("mean_load"))
	res.Imbalance = meanOf(rec.Values("imbalance"))
	return res, nil
}

// TestGenerateWorldSoAMatchesGenerateWorld pins the SoA generator to the AoS
// one: identical RNG draw order means entity i is bit-identical.
func TestGenerateWorldSoAMatchesGenerateWorld(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		cfg := DefaultWorldConfig(700)
		cfg.Seed = seed
		aos := GenerateWorld(cfg)
		soa := GenerateWorldSoA(cfg)
		if soa.Len() != len(aos.Entities) {
			t.Fatalf("seed %d: entity count %d != %d", seed, soa.Len(), len(aos.Entities))
		}
		if len(soa.POIs) != len(aos.POIs) {
			t.Fatalf("seed %d: POI count mismatch", seed)
		}
		for p := range soa.POIs {
			if soa.POIs[p] != aos.POIs[p] {
				t.Fatalf("seed %d: POI %d: %v != %v", seed, p, soa.POIs[p], aos.POIs[p])
			}
		}
		for i, e := range aos.Entities {
			if soa.X[i] != e.X || soa.Y[i] != e.Y || soa.Actionable[i] != e.Actionable {
				t.Fatalf("seed %d: entity %d: (%v,%v,%v) != (%v,%v,%v)",
					seed, i, soa.X[i], soa.Y[i], soa.Actionable[i], e.X, e.Y, e.Actionable)
			}
		}
	}
}

// TestLoadsSoAMatchesLoads pins every built-in partitioner's SoA path to its
// allocating Loads, bit for bit, including scratch reuse across calls.
func TestLoadsSoAMatchesLoads(t *testing.T) {
	parts := []SoAPartitioner{
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
			aos := GenerateWorld(cfg)
			soa := GenerateWorldSoA(cfg)
			for _, p := range parts {
				for _, servers := range []int{1, 3, 8, 16} {
					want := p.Loads(aos, servers)
					got := p.LoadsSoA(soa, servers, &scratch)
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

// customTestPartitioner lacks a SoA path, forcing WorldSim's synchronized
// AoS-view fallback.
type customTestPartitioner struct{}

func (customTestPartitioner) Name() string { return "custom-test" }

func (customTestPartitioner) Loads(w *World, servers int) []float64 {
	return AoSPartitioner{}.Loads(w, servers)
}

// TestWorldSimFallbackView pins the non-SoA partitioner fallback: a custom
// partitioner sees a fully synchronized AoS view each tick.
func TestWorldSimFallbackView(t *testing.T) {
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
		t.Fatalf("fallback diverged:\n got %+v\nwant %+v", got, want)
	}
}

// nearestPOI returns the closest point of interest to (x, y): the
// reference form of nearestArea.
func nearestPOI(w *World, x, y float64) (float64, float64) {
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
