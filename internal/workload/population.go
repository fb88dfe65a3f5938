package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

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
// ties are broken by client ID, so the emitted stream is byte-identical at
// any Shards setting.
type Population struct {
	// Clients is the number of independent clients (≥ 1).
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
	// Shards > 1 generates the stream on that many goroutines (clients
	// partitioned contiguously), merged back deterministically.
	Shards int
}

// SingleClass is the homogeneous mix: every client runs class c.
func SingleClass(c Class) []ClassShare { return []ClassShare{{Class: c, Weight: 1}} }

// DeriveSeed derives a per-client RNG seed from the population base seed by
// avalanching the (base, client) pair through the splitmix64 finalizer —
// the same discipline the runner uses for experiment seeds. Client streams
// depend only on their global ID, which is what makes sharded generation
// order-independent.
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
	if p.Clients < 1 {
		return fmt.Errorf("workload: population needs clients >= 1, got %d", p.Clients)
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
	if p.Shards < 0 {
		return fmt.Errorf("workload: population shards must be >= 0, got %d", p.Shards)
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
	name := p.name()
	if p.Shards <= 1 {
		return &populationSource{core: newMergeCores(cfg, [][2]int{{0, p.Clients}})[0], name: name}, nil
	}
	return newShardedSource(cfg, p.Clients, p.Shards, name), nil
}

// config validates the spec and resolves it into the shard-independent
// configuration every merge core shares.
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

// popConfig is the resolved, shard-independent population configuration.
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
// client table. One shared *rand.Rand per merge core is redirected from
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

// mergeNode builds the heap node of one merge cursor: the submit time keys
// the order, and ties break on client<<32|shard, so the merge order is
// independent of heap insertion history (and hence of shard count). shard is
// non-zero only in the top-level cross-shard merge, where each shard holds
// one node and client IDs are unique anyway.
func mergeNode(at sim.Time, client, shard uint32) heap4.Node {
	return heap4.Node{Hi: heap4.TimeKey(float64(at)), Lo: uint64(client)<<32 | uint64(shard)}
}

// nodeClient and nodeShard unpack mergeNode's tie-break word.
func nodeClient(n heap4.Node) uint32 { return uint32(n.Lo >> 32) }
func nodeShard(n heap4.Node) uint32  { return uint32(n.Lo) }

// mergeCore merges one contiguous client range [base, base+len(clients))
// into a (submit, client)-ordered job stream: a monotone queue of one cursor
// per client, job bodies drawn at pop time into a reused scratch job.
type mergeCore struct {
	cfg     popConfig
	clients []client
	base    uint32
	queue   mergeQueue
	src     clientSource
	r       *rand.Rand
	sc      genScratch
	job     Job
}

// newMergeCores builds one merge core per client range. Client by client,
// in ID order, it stores each unnormalised Zipf weight in the client's mult
// and adds it to the unit-mean normaliser's sum, so the sum is the same for
// any partition; then it draws every client's start state, concurrently
// when there are several cores (client init is the O(clients) part of
// startup).
func newMergeCores(cfg popConfig, ranges [][2]int) []*mergeCore {
	cores := make([]*mergeCore, len(ranges))
	sum, n := 0.0, 0
	for i, rg := range ranges {
		mc := &mergeCore{
			cfg:     cfg,
			clients: make([]client, rg[1]-rg[0]),
			base:    uint32(rg[0]),
			queue:   newMergeQueue(rg[1] - rg[0]),
		}
		if cfg.skew.Kind == "zipf" {
			for j := range mc.clients {
				w := math.Pow(float64(rg[0]+j+1), -cfg.skew.S)
				mc.clients[j].mult = w
				sum += w
			}
		}
		n += len(mc.clients)
		cores[i] = mc
	}
	zipfNorm := sum / float64(n)
	if len(cores) == 1 {
		cores[0].start(zipfNorm)
		return cores
	}
	var wg sync.WaitGroup
	wg.Add(len(cores))
	for _, mc := range cores {
		go func(mc *mergeCore, zipfNorm float64) {
			defer wg.Done()
			mc.start(zipfNorm)
		}(mc, zipfNorm)
	}
	wg.Wait()
	return cores
}

// start draws every client's class, rate multiplier and first arrival and
// queues the cursors; zipfNorm is the Zipf weights' unit-mean normaliser.
func (mc *mergeCore) start(zipfNorm float64) {
	cfg := &mc.cfg
	mc.r = rand.New(&mc.src)
	for i := range mc.clients {
		id := int(mc.base) + i
		c := &mc.clients[i]
		c.rng = uint64(DeriveSeed(cfg.seed, id))
		mc.src.state = &c.rng
		// Per-client draw order is a fixed contract: class pick (only for
		// mixed populations), skew draw (only lognormal), first arrival gap.
		ci := 0
		if len(cfg.gens) > 1 {
			u := mc.r.Float64() * cfg.cum[len(cfg.cum)-1]
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
			z := mc.r.NormFloat64()
			mult *= math.Exp(cfg.skew.Sigma*z - cfg.skew.Sigma*cfg.skew.Sigma/2)
		}
		c.mult = mult
		c.next = cfg.gens[ci].Arrivals.NextAfter(0, mult, mc.r)
		mc.queue.push(mergeNode(c.next, uint32(id), 0))
	}
}

// next pops the earliest client cursor, fills that client's next job into
// the core scratch (local task IDs; global identity is assigned by the
// caller via emitAs), and queues the advanced cursor. The stream is
// unbounded, so next always succeeds.
func (mc *mergeCore) next() (*Job, uint32) {
	client := nodeClient(mc.queue.pop())
	c := &mc.clients[client-mc.base]
	mc.src.state = &c.rng
	g := &mc.cfg.gens[c.class]
	mc.job.ID = 0
	mc.job.Submit = c.next
	mc.job.Class = g.Class
	g.fillJob(&mc.job, mc.r, &mc.sc)
	c.next = g.Arrivals.NextAfter(c.next, c.mult, mc.r)
	mc.queue.push(mergeNode(c.next, client, 0))
	return &mc.job, client
}

// populationSource is the inline (unsharded) population stream.
type populationSource struct {
	core   *mergeCore
	name   string
	seq    int
	taskID int
}

func (s *populationSource) Next() *Job {
	j, _ := s.core.next()
	s.seq++
	emitAs(j, s.seq, s.taskID)
	s.taskID += len(j.Tasks)
	return j
}

func (s *populationSource) Name() string { return s.name }

func (s *populationSource) Close() {}

// batchJobs is the per-shard handover granularity: large enough to amortize
// channel operations, small enough to keep resident batch memory trivial.
const batchJobs = 512

// shardBatch carries a run of generated jobs from a shard goroutine to the
// merging consumer in three flat arenas; batches are recycled through the
// shard's free list, so steady-state generation allocates nothing.
type shardBatch struct {
	jobs  []batchJob
	tasks []Task
	deps  []int
}

type batchJob struct {
	submit   sim.Time
	client   uint32
	class    Class
	deadline sim.Duration
	lo, hi   int32 // task range in the batch task arena
}

func (b *shardBatch) reset() {
	b.jobs = b.jobs[:0]
	b.tasks = b.tasks[:0]
	b.deps = b.deps[:0]
}

// add copies a scratch job into the batch arenas, rebinding dep slices into
// the batch dep arena.
func (b *shardBatch) add(j *Job, clientID uint32) {
	lo := len(b.tasks)
	b.tasks = append(b.tasks, j.Tasks...)
	for i := lo; i < len(b.tasks); i++ {
		t := &b.tasks[i]
		if len(t.Deps) > 0 {
			dlo := len(b.deps)
			b.deps = append(b.deps, t.Deps...)
			t.Deps = b.deps[dlo:len(b.deps):len(b.deps)]
		}
	}
	b.jobs = append(b.jobs, batchJob{
		submit:   j.Submit,
		client:   clientID,
		class:    j.Class,
		deadline: j.Deadline,
		lo:       int32(lo),
		hi:       int32(len(b.tasks)),
	})
}

type shard struct {
	core *mergeCore
	out  chan *shardBatch
	free chan *shardBatch
	cur  *shardBatch
	pos  int
}

// shardedSource partitions the clients across G goroutines, each running
// its own mergeCore, and k-way merges the G sorted sub-streams. Because
// every per-client draw sequence depends only on (seed, clientID) and merge
// order is keyed (submit, clientID), the output is byte-identical to the
// inline source.
type shardedSource struct {
	shards []*shard
	heap   []heap4.Node
	name   string
	job    Job
	seq    int
	taskID int
	retire int // shard whose exhausted batch must be swapped on the next Next
	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

func newShardedSource(cfg popConfig, clients, shards int, name string) *shardedSource {
	if shards > clients {
		shards = clients
	}
	s := &shardedSource{name: name, retire: -1, done: make(chan struct{})}
	per := (clients + shards - 1) / shards
	var ranges [][2]int
	for lo := 0; lo < clients; lo += per {
		ranges = append(ranges, [2]int{lo, min(lo+per, clients)})
	}
	cores := newMergeCores(cfg, ranges)
	for _, core := range cores {
		sh := &shard{
			core: core,
			out:  make(chan *shardBatch, 1),
			free: make(chan *shardBatch, 2),
		}
		sh.free <- &shardBatch{}
		sh.free <- &shardBatch{}
		s.shards = append(s.shards, sh)
	}
	s.wg.Add(len(s.shards))
	for _, sh := range s.shards {
		go s.fill(sh)
	}
	for i, sh := range s.shards {
		sh.cur = <-sh.out
		bj := &sh.cur.jobs[0]
		s.heap = append(s.heap, mergeNode(bj.submit, bj.client, uint32(i)))
	}
	heap4.Heapify(s.heap)
	return s
}

func (s *shardedSource) fill(sh *shard) {
	defer s.wg.Done()
	for {
		var b *shardBatch
		select {
		case b = <-sh.free:
		case <-s.done:
			return
		}
		b.reset()
		for len(b.jobs) < batchJobs {
			j, clientID := sh.core.next()
			b.add(j, clientID)
		}
		select {
		case sh.out <- b:
		case <-s.done:
			return
		}
	}
}

func (s *shardedSource) Next() *Job {
	if s.retire >= 0 {
		// The previous Next emitted the last job of this shard's batch; the
		// emitted job aliased its arenas, so the swap was deferred to now.
		sh := s.shards[s.retire]
		old := sh.cur
		sh.cur = <-sh.out
		sh.free <- old
		sh.pos = 0
		bj := &sh.cur.jobs[0]
		s.heap = heap4.Push(s.heap, mergeNode(bj.submit, bj.client, uint32(s.retire)))
		s.retire = -1
	}
	si := nodeShard(s.heap[0])
	sh := s.shards[si]
	bj := &sh.cur.jobs[sh.pos]
	s.job.Submit = bj.submit
	s.job.Class = bj.class
	s.job.Deadline = bj.deadline
	s.job.Tasks = sh.cur.tasks[bj.lo:bj.hi]
	s.seq++
	emitAs(&s.job, s.seq, s.taskID)
	s.taskID += len(s.job.Tasks)
	sh.pos++
	if sh.pos < len(sh.cur.jobs) {
		nb := &sh.cur.jobs[sh.pos]
		s.heap[0] = mergeNode(nb.submit, nb.client, si)
		heap4.FixTop(s.heap)
	} else {
		_, s.heap = heap4.Pop(s.heap)
		s.retire = int(si)
	}
	return &s.job
}

func (s *shardedSource) Name() string { return s.name }

func (s *shardedSource) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	// Unblock any producer parked on a full out channel, then wait for all
	// shard goroutines to observe done.
	for _, sh := range s.shards {
		select {
		case <-sh.out:
		default:
		}
	}
	s.wg.Wait()
}
