package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"atlarge/internal/heap4"
	"atlarge/internal/sim"
)

// ClassShare weights one workload class in a Population's client mix.
type ClassShare struct {
	Class  Class
	Weight float64
}

// Skew describes how per-client rate multipliers are drawn across a
// Population, producing the heavy-tailed per-client activity observed in
// production serving traces.
type Skew struct {
	// Kind is "none" (or empty), "zipf", or "lognormal".
	Kind string
	// S is the Zipf exponent (default 1.1): client c's rate weight is
	// proportional to (c+1)^-S, normalized to unit mean over the population.
	S float64
	// Sigma is the lognormal σ (default 1): multipliers are exp(σZ − σ²/2),
	// unit mean.
	Sigma float64
}

// ParseSkew resolves a skew by name, case-insensitively, with default
// parameters.
func ParseSkew(name string) (Skew, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return Skew{Kind: "none"}, nil
	case "zipf":
		return Skew{Kind: "zipf"}, nil
	case "lognormal":
		return Skew{Kind: "lognormal"}, nil
	}
	return Skew{}, fmt.Errorf("workload: unknown skew %q (known: %s)", name, strings.Join(SkewNames(), ", "))
}

// SkewNames returns the accepted skew names in sorted order.
func SkewNames() []string {
	out := []string{"lognormal", "none", "zipf"}
	sort.Strings(out)
	return out
}

// normalizeSkew lower-cases the kind and fills parameter defaults.
func normalizeSkew(s Skew) Skew {
	s.Kind = strings.ToLower(s.Kind)
	if s.Kind == "" {
		s.Kind = "none"
	}
	if s.S == 0 {
		s.S = 1.1
	}
	if s.Sigma == 0 {
		s.Sigma = 1
	}
	return s
}

// Population declares N heterogeneous clients whose merged submissions form
// one workload: each client draws a class from Mix, a rate multiplier from
// Skew, and then submits jobs forever through its class's arrival process.
// Source streams the merged, globally time-ordered result with O(Clients)
// resident state — a 32-byte client record and a 16-byte merge-queue slot
// per client, plus at most 131 queue chunks of 2 KiB — so a spec can
// declare 10^6 clients without materializing anything per job.
//
// Determinism: client c's RNG stream depends only on (Seed, c), and merge
// ties are broken by client ID, so the emitted stream is a pure function of
// the spec.
type Population struct {
	// Clients is the number of independent clients, 1 to MaxClients.
	Clients int
	// Mix weights the workload classes that clients are assigned to; one
	// class draw per client. It must be non-empty — use SingleClass for the
	// common homogeneous case.
	Mix []ClassShare
	// Arrival, when non-nil, overrides the arrival process of every class
	// generator in the mix.
	Arrival ArrivalProcess
	// Skew draws the per-client rate multipliers.
	Skew Skew
	// RateScale scales every client's arrival rate. 0 defaults to
	// 1/Clients, so the population's aggregate rate matches the class
	// generator's calibrated rate regardless of the client count.
	RateScale float64
	// Seed is the base seed; client c streams from DeriveSeed(Seed, c).
	Seed int64
	// Deprecated: Shards has no effect; every population streams from one
	// inline merge. It stays only so the benchmark module, which sets it,
	// compiles.
	Shards int
}

// MaxClients bounds Population.Clients. At ~50 B of resident state per
// client it caps a stream's client table near 0.8 GiB, and it keeps every
// client ID within the merge key's uint32 client field.
const MaxClients = 1 << 24

// SingleClass is the homogeneous mix: every client runs class c.
func SingleClass(c Class) []ClassShare { return []ClassShare{{Class: c, Weight: 1}} }

// DeriveSeed derives a per-client RNG seed from the population base seed by
// avalanching the (base, client) pair through the splitmix64 finalizer —
// the same discipline the runner uses for experiment seeds. A client's
// stream depends only on its ID, not on the order clients are drawn in.
func DeriveSeed(base int64, client int) int64 {
	h := uint64(base) + (uint64(client)+1)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

func validClass(c Class) bool { return c >= ClassSynthetic && c <= ClassIndustrial }

// Validate checks the population spec without building it.
func (p *Population) Validate() error {
	if p.Clients < 1 || p.Clients > MaxClients {
		return fmt.Errorf("workload: population needs 1 <= clients <= %d, got %d", MaxClients, p.Clients)
	}
	if len(p.Mix) == 0 {
		return fmt.Errorf("workload: population needs a non-empty class mix")
	}
	for _, m := range p.Mix {
		if !validClass(m.Class) {
			return fmt.Errorf("workload: population mix has unknown class %v", m.Class)
		}
		if !positive(m.Weight) {
			return fmt.Errorf("workload: population mix weight for %s must be > 0, got %v", m.Class, m.Weight)
		}
	}
	if p.Arrival != nil {
		if err := p.Arrival.Validate(); err != nil {
			return err
		}
	}
	sk := normalizeSkew(p.Skew)
	if _, err := ParseSkew(sk.Kind); err != nil {
		return err
	}
	if !positive(sk.S) || !positive(sk.Sigma) {
		return fmt.Errorf("workload: population skew parameters must be > 0, got s=%v sigma=%v", sk.S, sk.Sigma)
	}
	if sk.Kind == "zipf" && math.Pow(float64(p.Clients), -sk.S) == 0 {
		return &ZipfUnderflowError{Clients: p.Clients, S: sk.S}
	}
	if p.RateScale < 0 || math.IsNaN(p.RateScale) {
		return fmt.Errorf("workload: population rate scale must be >= 0, got %v", p.RateScale)
	}
	return nil
}

// ZipfUnderflowError rejects a Zipf skew so steep that the last client's
// rate weight, Clients^-S, underflows to 0: that client would never submit.
type ZipfUnderflowError struct {
	Clients int
	S       float64
}

func (e *ZipfUnderflowError) Error() string {
	return fmt.Sprintf("workload: zipf skew s=%v underflows client %d's rate weight to 0; lower s or the client count", e.S, e.Clients-1)
}

// Source builds the population's job stream. The stream is unbounded;
// consumers take what they need (Collect with a max, or a streaming
// simulator) and must Close it when done.
func (p *Population) Source() (JobSource, error) {
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	return newPopulationSource(cfg, p.Clients, p.name()), nil
}

// config validates the spec and resolves it into the configuration the
// merge draws from.
func (p *Population) config() (popConfig, error) {
	if err := p.Validate(); err != nil {
		return popConfig{}, err
	}
	gens := make([]Generator, len(p.Mix))
	cum := make([]float64, len(p.Mix))
	total := 0.0
	for i, m := range p.Mix {
		gens[i] = StandardGenerator(m.Class)
		if p.Arrival != nil {
			gens[i].Arrivals = p.Arrival
		}
		if err := gens[i].Arrivals.Validate(); err != nil {
			return popConfig{}, err
		}
		total += m.Weight
		cum[i] = total
	}
	rateScale := p.RateScale
	if rateScale == 0 {
		rateScale = 1 / float64(p.Clients)
	}
	return popConfig{gens: gens, cum: cum, skew: normalizeSkew(p.Skew), rateScale: rateScale, seed: p.Seed}, nil
}

func (p *Population) name() string {
	classes := make([]string, len(p.Mix))
	for i, m := range p.Mix {
		classes[i] = m.Class.String()
	}
	return fmt.Sprintf("population(%d×%s, skew=%s)", p.Clients, strings.Join(classes, "+"), normalizeSkew(p.Skew).Kind)
}

// popConfig is the resolved population configuration.
type popConfig struct {
	gens      []Generator
	cum       []float64 // cumulative mix weights
	skew      Skew
	rateScale float64
	seed      int64
}

// client is one population member's entire resident state: an 8-byte
// splitmix64 RNG, the next (already drawn) submit time, the rate multiplier,
// and the class index.
type client struct {
	rng   uint64
	next  sim.Time
	mult  float64
	class uint16
}

// clientSource is a splitmix64 rand.Source64 whose state word lives in the
// client table. The population stream's one *rand.Rand is redirected from
// client to client, so a million clients cost 8 MB of RNG state rather than
// a million rand.Rand instances.
type clientSource struct{ state *uint64 }

func (s *clientSource) Uint64() uint64 {
	*s.state += 0x9e3779b97f4a7c15
	z := *s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *clientSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *clientSource) Seed(int64) {}

// mergeNode builds the queue node of one client cursor: the submit time keys
// the order and ties break on the client ID, so the merge order is
// independent of queue insertion history.
func mergeNode(at sim.Time, client uint32) heap4.Node {
	return heap4.Node{Hi: heap4.TimeKey(float64(at)), Lo: uint64(client)}
}

// nodeClient unpacks mergeNode's tie-break word.
func nodeClient(n heap4.Node) uint32 { return uint32(n.Lo) }

// populationSource merges every client's cursor into one (submit,
// client)-ordered job stream: a monotone queue of one cursor per client, job
// bodies drawn at pop time into a reused scratch job.
type populationSource struct {
	cfg     popConfig
	clients []client
	queue   mergeQueue
	src     clientSource
	r       *rand.Rand
	sc      genScratch
	job     Job
	name    string
	seq     int
	taskID  int
}

// newPopulationSource draws every client's class, rate multiplier and first
// arrival and queues the cursors. For a Zipf skew it first stores each
// client's unnormalised weight in its mult, summing them in ID order for the
// unit-mean normaliser.
func newPopulationSource(cfg popConfig, clients int, name string) *populationSource {
	s := &populationSource{
		cfg:     cfg,
		clients: make([]client, clients),
		queue:   newMergeQueue(clients),
		name:    name,
	}
	s.r = rand.New(&s.src)
	sum := 0.0
	if cfg.skew.Kind == "zipf" {
		for i := range s.clients {
			w := math.Pow(float64(i+1), -cfg.skew.S)
			s.clients[i].mult = w
			sum += w
		}
	}
	zipfNorm := sum / float64(clients)
	for i := range s.clients {
		c := &s.clients[i]
		c.rng = uint64(DeriveSeed(cfg.seed, i))
		s.src.state = &c.rng
		// Per-client draw order is a fixed contract: class pick (only for
		// mixed populations), skew draw (only lognormal), first arrival gap.
		ci := 0
		if len(cfg.gens) > 1 {
			u := s.r.Float64() * cfg.cum[len(cfg.cum)-1]
			for ci < len(cfg.cum)-1 && u > cfg.cum[ci] {
				ci++
			}
		}
		c.class = uint16(ci)
		mult := cfg.rateScale
		switch cfg.skew.Kind {
		case "zipf":
			mult *= c.mult / zipfNorm
		case "lognormal":
			z := s.r.NormFloat64()
			mult *= math.Exp(cfg.skew.Sigma*z - cfg.skew.Sigma*cfg.skew.Sigma/2)
		}
		c.mult = mult
		c.next = cfg.gens[ci].Arrivals.NextAfter(0, mult, s.r)
		s.queue.push(mergeNode(c.next, uint32(i)))
	}
	return s
}

// next pops the earliest client cursor, fills that client's next job into
// the scratch job (local task IDs; Next assigns the global identity), and
// queues the advanced cursor. The stream is unbounded, so next always
// succeeds.
func (s *populationSource) next() (*Job, uint32) {
	client := nodeClient(s.queue.pop())
	c := &s.clients[client]
	s.src.state = &c.rng
	g := &s.cfg.gens[c.class]
	s.job.ID = 0
	s.job.Submit = c.next
	s.job.Class = g.Class
	g.fillJob(&s.job, s.r, &s.sc)
	c.next = g.Arrivals.NextAfter(c.next, c.mult, s.r)
	s.queue.push(mergeNode(c.next, client))
	return &s.job, client
}

func (s *populationSource) Next() *Job {
	j, _ := s.next()
	s.seq++
	emitAs(j, s.seq, s.taskID)
	s.taskID += len(j.Tasks)
	return j
}

func (s *populationSource) Name() string { return s.name }

func (s *populationSource) Close() {}
