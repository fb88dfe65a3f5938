// Package p2p simulates BitTorrent-style file-sharing ecosystems and the
// measurement studies of the paper's Table 5: swarm dynamics under
// flashcrowds, upload/download bandwidth asymmetry (ADSL), tit-for-tat
// reciprocity, the 2fast collaborative-download protocol, BTWorld-style
// tracker monitoring with sampling bias, spam trackers, and aliased media.
//
// The swarm model is a fluid-flow model in the Qiu–Srikant tradition: peer
// download rates are recomputed on every membership change from the swarm's
// aggregate upload capacity and each leecher's reciprocity, and the earliest
// completion is scheduled from the current rates. This reproduces the
// macroscopic phenomena the paper's studies measured without packet-level
// detail.
package p2p

import (
	"fmt"
	"math"
	"slices"

	"atlarge/internal/sim"
)

// PeerClass describes a peer's access link.
type PeerClass struct {
	Name     string
	Down     float64 // download capacity, bytes/s
	Up       float64 // upload capacity, bytes/s
	LingerS  float64 // mean seeding time after completion
	Fraction float64 // share of the population
}

// StandardPeerClasses models the mid-2000s access mix the paper's studies
// found: ADSL dominates, with strongly asymmetric bandwidth.
func StandardPeerClasses() []PeerClass {
	return []PeerClass{
		{Name: "adsl", Down: 1000e3, Up: 128e3, LingerS: 600, Fraction: 0.7},
		{Name: "cable", Down: 2000e3, Up: 400e3, LingerS: 600, Fraction: 0.2},
		{Name: "university", Down: 10000e3, Up: 10000e3, LingerS: 1200, Fraction: 0.1},
	}
}

// peerState tracks one peer inside a swarm simulation.
type peerState struct {
	id        int
	class     PeerClass
	joined    sim.Time
	remaining float64 // bytes left to download
	rate      float64 // current download rate
	seeding   bool    // completed the download
	helper    bool    // 2fast helper donating upload to a collector
	group     int     // 2fast group id (0 = none)
	gone      bool    // departed or aborted
}

// DownloadRecord is the outcome of one completed download.
type DownloadRecord struct {
	PeerID   int
	Class    string
	JoinAt   sim.Time
	DoneAt   sim.Time
	Duration float64
	Group    int
}

// SwarmConfig parameterizes one swarm simulation.
type SwarmConfig struct {
	FileSize float64 // bytes
	Seed     int64
	// InitialSeeds is the number of always-on origin seeds.
	InitialSeeds int
	// SeedUp is the upload capacity of each origin seed.
	SeedUp float64
	// Classes is the peer population mix; fractions must sum to ~1.
	Classes []PeerClass
	// Reciprocity is the tit-for-tat coupling in [0,1]: the share of a
	// leecher's download rate that is limited by its own upload. 0 means
	// pure capacity sharing; 0.8 reproduces BitTorrent's choking behaviour.
	Reciprocity float64
	// Efficiency is the fraction of leecher upload capacity usable by the
	// swarm (piece availability losses).
	Efficiency float64
	// TwoFastGroupSize enables the 2fast protocol when > 1: peers arrive in
	// groups of this size, one collector and size-1 helpers; helpers donate
	// their upload to the collector. Helpers do not download the file.
	TwoFastGroupSize int
	// ChurnRate is the per-peer abort rate (1/s): each leecher carries an
	// exponential failure clock and may leave before completing (failure
	// injection; real swarms exhibit heavy churn). 0 disables churn.
	ChurnRate float64
}

// DefaultSwarmConfig is a 700 MB file with one origin seed, standard classes.
func DefaultSwarmConfig() SwarmConfig {
	return SwarmConfig{
		FileSize:     700e6,
		InitialSeeds: 1,
		SeedUp:       1000e3,
		Classes:      StandardPeerClasses(),
		Reciprocity:  0.8,
		Efficiency:   0.9,
	}
}

// Swarm simulates one torrent swarm.
type Swarm struct {
	cfg SwarmConfig
	k   *sim.Kernel
	// peers holds the present peers in join order, so rate sums and
	// completion tie-breaks are reproducible.
	peers   []*peerState
	nextID  int
	records []DownloadRecord
	groups  map[int][]*peerState
	aborts  int
	// next is the one pending peer-complete event, for nextPeer: every
	// recompute replaces it, so only the earliest completion can fire.
	next     sim.EventRef
	nextPeer *peerState
	onNext   sim.Handler
}

// NewSwarm builds a swarm simulation on a fresh kernel.
func NewSwarm(cfg SwarmConfig) (*Swarm, error) {
	if cfg.FileSize <= 0 {
		return nil, fmt.Errorf("p2p: file size %v", cfg.FileSize)
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("p2p: no peer classes")
	}
	s := &Swarm{
		cfg:    cfg,
		k:      sim.NewKernel(cfg.Seed),
		groups: make(map[int][]*peerState),
	}
	s.onNext = func(k *sim.Kernel) { s.complete(s.nextPeer) }
	return s, nil
}

// Kernel exposes the simulation kernel for scheduling arrivals.
func (s *Swarm) Kernel() *sim.Kernel { return s.k }

// Records returns completed downloads.
func (s *Swarm) Records() []DownloadRecord { return s.records }

// sampleClass draws a peer class by its population fraction.
func (s *Swarm) sampleClass() PeerClass {
	u := s.k.Rand("class").Float64()
	acc := 0.0
	for _, c := range s.cfg.Classes {
		acc += c.Fraction
		if u <= acc {
			return c
		}
	}
	return s.cfg.Classes[len(s.cfg.Classes)-1]
}

// ScheduleArrivals registers peer join events at the given times. The joins
// share one closure and enter the queue as one batch, so a large swarm's
// arrival schedule costs one heap rebuild instead of per-peer sift-ups.
func (s *Swarm) ScheduleArrivals(times []sim.Time) {
	join := func(k *sim.Kernel) { s.join() }
	batch := make([]sim.BatchEvent, len(times))
	for i, at := range times {
		batch[i] = sim.BatchEvent{At: at, Name: "peer-join", Fn: join}
	}
	s.k.Reserve(len(batch))
	s.k.AtBatch(batch)
}

// join admits one peer (or one 2fast group).
func (s *Swarm) join() {
	if s.cfg.TwoFastGroupSize > 1 {
		gid := s.nextID + 1
		for i := 0; i < s.cfg.TwoFastGroupSize; i++ {
			p := s.newPeer()
			p.group = gid
			p.helper = i > 0
			if p.helper {
				p.remaining = 0 // helpers do not need the file
			}
			s.groups[gid] = append(s.groups[gid], p)
		}
	} else {
		s.newPeer()
	}
	s.recompute()
}

func (s *Swarm) newPeer() *peerState {
	s.nextID++
	p := &peerState{
		id:        s.nextID,
		class:     s.sampleClass(),
		joined:    s.k.Now(),
		remaining: s.cfg.FileSize,
	}
	s.peers = append(s.peers, p)
	if s.cfg.ChurnRate > 0 {
		ttl := sim.Duration(s.k.Rand("churn").ExpFloat64() / s.cfg.ChurnRate)
		pp := p
		s.k.After(ttl, "peer-abort", func(k *sim.Kernel) { s.abort(pp) })
	}
	return p
}

// abort removes a peer that leaves before completing (churn). Completed or
// already-departed peers are unaffected; the aborted download is counted.
func (s *Swarm) abort(p *peerState) {
	if p.seeding || p.gone {
		return
	}
	s.aborts++
	s.depart(p)
}

// recompute reassigns download rates and reschedules the next completion.
// Fluid model: the swarm's aggregate upload capacity is split evenly among
// leechers; tit-for-tat couples a leecher's achievable rate to its own upload
// capacity by the Reciprocity factor. 2fast collectors additionally receive
// their group helpers' upload capacity as dedicated bandwidth.
//
// Every handler that changes membership or progress ends in recompute, which
// replaces the pending completion, so only the earliest completion at the
// current rates can ever fire: that one event is scheduled, ties going to
// the first peer in join order.
func (s *Swarm) recompute() {
	s.next.Cancel()
	s.nextPeer = nil
	leechers := 0
	totalUp := float64(s.cfg.InitialSeeds) * s.cfg.SeedUp
	for _, p := range s.peers {
		if p.helper {
			continue // helper upload is dedicated, not shared
		}
		if p.seeding {
			totalUp += p.class.Up
		} else {
			leechers++
			// Piece scarcity: a leecher can only upload pieces it already
			// has, so its usable upload scales with download progress. This
			// is what makes flashcrowds degrade performance — a wave of
			// newcomers demands capacity while contributing almost none.
			progress := 1 - p.remaining/s.cfg.FileSize
			if progress < 0 {
				progress = 0
			}
			totalUp += p.class.Up * s.cfg.Efficiency * progress
		}
	}
	if leechers == 0 {
		return
	}
	share := totalUp / float64(leechers)

	now := s.k.Now()
	var nextAt sim.Time
	for _, p := range s.peers {
		if p.seeding || p.helper {
			continue
		}
		// Tit-for-tat: a fraction r of the fair share must be reciprocated
		// by own upload; the rest is altruistic/optimistic-unchoke capacity.
		r := s.cfg.Reciprocity
		reciprocated := math.Min(share*r, p.class.Up)
		rate := reciprocated + share*(1-r)
		// 2fast: helpers donate dedicated upload to their collector.
		if p.group != 0 {
			for _, h := range s.groups[p.group] {
				if h.helper {
					rate += h.class.Up
				}
			}
		}
		rate = math.Min(rate, p.class.Down)
		if rate <= 0 {
			rate = 1 // avoid stalling forever
		}
		p.rate = rate
		if at := now + sim.Duration(p.remaining/rate); s.nextPeer == nil || at < nextAt {
			s.nextPeer, nextAt = p, at
		}
	}
	s.next = s.k.At(nextAt, "peer-complete", s.onNext)
}

func (s *Swarm) complete(p *peerState) {
	p.seeding = true
	p.remaining = 0
	now := s.k.Now()
	s.records = append(s.records, DownloadRecord{
		PeerID:   p.id,
		Class:    p.class.Name,
		JoinAt:   p.joined,
		DoneAt:   now,
		Duration: float64(now - p.joined),
		Group:    p.group,
	})
	// Schedule departure after lingering as a seed.
	linger := sim.Duration(p.class.LingerS * (0.5 + s.k.Rand("linger").Float64()))
	s.k.After(linger, "seed-depart", func(k *sim.Kernel) { s.depart(p) })
	s.recompute()
}

func (s *Swarm) depart(p *peerState) {
	p.gone = true
	if p.group != 0 {
		// Helpers of a departed collector leave too.
		for _, h := range s.groups[p.group] {
			if h.helper {
				h.gone = true
			}
		}
		delete(s.groups, p.group)
	}
	s.peers = slices.DeleteFunc(s.peers, func(q *peerState) bool { return q.gone })
	s.recompute()
}

// Run executes the swarm simulation with periodic progress updates every
// tick seconds and returns when the event queue empties or horizon passes.
func (s *Swarm) Run(horizon sim.Time, tick sim.Duration) error {
	if tick <= 0 {
		tick = 10
	}
	var doTick func(k *sim.Kernel)
	doTick = func(k *sim.Kernel) {
		s.applyProgress(tick)
		if k.Now() < horizon {
			k.After(tick, "progress", doTick)
		}
	}
	s.k.After(tick, "progress", doTick)
	s.k.SetHorizon(horizon)
	if err := s.k.Run(); err != nil {
		return fmt.Errorf("p2p: %w", err)
	}
	return nil
}

// applyProgress decrements remaining bytes for the elapsed tick and refreshes
// rates (arrivals during the tick changed shares).
func (s *Swarm) applyProgress(dt sim.Duration) {
	for _, p := range s.peers {
		if p.seeding || p.helper {
			continue
		}
		p.remaining -= p.rate * float64(dt)
		if p.remaining < 0 {
			p.remaining = 0
		}
	}
	s.recompute()
}
