package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"atlarge/internal/sim"
)

// legacyGenerate is a frozen copy of the eager pre-streaming
// Generator.Generate. The streaming rewrite (Source + fillJob + scratch
// buffers) must stay draw-for-draw and byte-for-byte identical to it; this
// reference pins that, so the repo's goldens cannot drift silently.
func legacyGenerate(g Generator, n int, r *rand.Rand) *Trace {
	times := g.Arrivals.Times(n, r)
	tr := &Trace{Name: fmt.Sprintf("%s-%s", g.Class, g.Arrivals)}
	taskID := 0
	for i := 0; i < n; i++ {
		job := &Job{ID: i + 1, Submit: times[i], Class: g.Class}
		width := int(g.TasksPerJob.Sample(r))
		if width < 1 {
			width = 1
		}
		for w := 0; w < width; w++ {
			taskID++
			rt := sim.Duration(g.Runtime.Sample(r))
			if rt <= 0 {
				rt = 0.001
			}
			cpus := int(g.TaskCPUs.Sample(r))
			if cpus < 1 {
				cpus = 1
			}
			est := rt
			if g.EstimateNoise > 0 {
				est = rt * sim.Duration(1+g.EstimateNoise*(2*r.Float64()-1))
				if est <= 0 {
					est = 0.001
				}
			}
			job.Tasks = append(job.Tasks, Task{
				ID:              taskID,
				JobID:           job.ID,
				CPUs:            cpus,
				Runtime:         rt,
				RuntimeEstimate: est,
			})
		}
		if g.WorkflowFraction > 0 && r.Float64() < g.WorkflowFraction && width > 2 {
			legacyChainIntoLevels(job, r)
		}
		if g.DeadlineFactor > 0 {
			cp, _ := job.CheckDAG(new(DAGScratch))
			job.Deadline = sim.Duration(g.DeadlineFactor) * cp
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	return tr
}

// legacyChainIntoLevels is the frozen map-and-slices form of
// chainIntoLevels; the allocation-free rewrite must consume the RNG
// identically and emit identical deps.
func legacyChainIntoLevels(job *Job, r *rand.Rand) {
	levels := 2 + r.Intn(3)
	if levels > len(job.Tasks) {
		levels = len(job.Tasks)
	}
	perLevel := len(job.Tasks) / levels
	if perLevel == 0 {
		perLevel = 1
	}
	levelOf := make([]int, len(job.Tasks))
	for i := range job.Tasks {
		l := i / perLevel
		if l >= levels {
			l = levels - 1
		}
		levelOf[i] = l
	}
	byLevel := make([][]int, levels)
	for i, l := range levelOf {
		byLevel[l] = append(byLevel[l], i)
	}
	for i := range job.Tasks {
		l := levelOf[i]
		if l == 0 {
			continue
		}
		prev := byLevel[l-1]
		nDeps := 1
		if len(prev) > 1 && r.Float64() < 0.5 {
			nDeps = 2
		}
		seen := map[int]bool{}
		for d := 0; d < nDeps; d++ {
			p := prev[r.Intn(len(prev))]
			if seen[p] {
				continue
			}
			seen[p] = true
			job.Tasks[i].Deps = append(job.Tasks[i].Deps, job.Tasks[p].ID)
		}
	}
}

func diffTraces(t *testing.T, want, got *Trace) {
	t.Helper()
	if want.Name != got.Name {
		t.Errorf("Name = %q, want %q", got.Name, want.Name)
	}
	if len(want.Jobs) != len(got.Jobs) {
		t.Fatalf("len(Jobs) = %d, want %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if !reflect.DeepEqual(want.Jobs[i], got.Jobs[i]) {
			t.Fatalf("job %d differs:\n got %+v\nwant %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
}

// TestGenerateMatchesLegacy pins the streaming refactor byte-for-byte against
// the frozen eager implementation, for every workload class and several seeds.
func TestGenerateMatchesLegacy(t *testing.T) {
	classes := []Class{
		ClassSynthetic, ClassScientific, ClassComputerEngineering,
		ClassBusinessCritical, ClassBigData, ClassGaming, ClassIndustrial,
	}
	for _, c := range classes {
		for seed := int64(1); seed <= 3; seed++ {
			g := StandardGenerator(c)
			want := legacyGenerate(g, 120, rand.New(rand.NewSource(seed)))
			got := g.Generate(120, rand.New(rand.NewSource(seed)))
			t.Run(fmt.Sprintf("%s/seed=%d", c, seed), func(t *testing.T) {
				diffTraces(t, want, got)
			})
		}
	}
}

// TestSourceScratchReuse pins the ownership contract: the job returned by a
// generator source is invalidated by the following Next, and Clone detaches
// it.
func TestSourceScratchReuse(t *testing.T) {
	g := StandardGenerator(ClassScientific)
	src := g.Source(10, rand.New(rand.NewSource(1)))
	defer src.Close()
	first := src.Next()
	if first == nil {
		t.Fatal("empty source")
	}
	kept := first.Clone()
	second := src.Next()
	if second != first {
		t.Fatalf("generator source should reuse its scratch job across Next calls")
	}
	if kept.ID == second.ID {
		t.Fatalf("clone aliases scratch: ID %d overwritten", kept.ID)
	}
	for _, task := range kept.Tasks {
		if task.JobID != kept.ID {
			t.Fatalf("cloned task JobID %d, want %d", task.JobID, kept.ID)
		}
	}
}

func TestTraceSourceRoundTrip(t *testing.T) {
	g := StandardGenerator(ClassSynthetic)
	tr := g.Generate(25, rand.New(rand.NewSource(9)))
	got := Collect(tr.Source(), 0)
	got.Name = tr.Name // trace name survives; jobs must match exactly
	diffTraces(t, tr, got)
}

// TestPopulationSingleClientMatchesCursor checks the merge machinery is a
// no-op for one client: the stream must equal a hand-rolled cursor over that
// client's RNG (DeriveSeed(seed, 0), class fixed, no skew draw).
func TestPopulationSingleClientMatchesCursor(t *testing.T) {
	const n, seed = 200, int64(42)
	g := StandardGenerator(ClassScientific)
	state := uint64(DeriveSeed(seed, 0))
	r := rand.New(&clientSource{state: &state})
	var (
		sc     genScratch
		job    Job
		want   []*Job
		taskID int
	)
	next := g.Arrivals.NextAfter(0, 1, r)
	for i := 0; i < n; i++ {
		job.Submit = next
		job.Class = g.Class
		g.fillJob(&job, r, &sc)
		next = g.Arrivals.NextAfter(next, 1, r)
		emitAs(&job, i+1, taskID)
		taskID += len(job.Tasks)
		want = append(want, job.Clone())
	}

	pop := &Population{Clients: 1, Mix: SingleClass(ClassScientific), RateScale: 1, Seed: seed}
	src, err := pop.Source()
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(src, n)
	src.Close()
	diffTraces(t, &Trace{Name: got.Name, Jobs: want}, got)
}

func testPopulation(skew string) *Population {
	return &Population{
		Clients: 240,
		Mix: []ClassShare{
			{Class: ClassSynthetic, Weight: 3},
			{Class: ClassScientific, Weight: 1},
			{Class: ClassGaming, Weight: 2},
		},
		Skew: Skew{Kind: skew},
		Seed: 7,
	}
}

// TestPopulationStreamWellFormed checks stream invariants across skews and an
// arrival override: non-decreasing submits, dense job IDs, globally unique
// contiguous task IDs, valid DAGs, classes drawn from the mix.
func TestPopulationStreamWellFormed(t *testing.T) {
	cases := []struct {
		name string
		pop  *Population
	}{
		{"zipf", testPopulation("zipf")},
		{"lognormal", testPopulation("lognormal")},
		{"gamma-arrivals", &Population{
			Clients: 50,
			Mix:     SingleClass(ClassSynthetic),
			Arrival: GammaArrivals{Rate: 0.05, Shape: 0.5},
			Seed:    3,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.pop.Source()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			inMix := map[Class]bool{}
			for _, m := range tc.pop.Mix {
				inMix[m.Class] = true
			}
			var last sim.Time
			nextTaskID := 1
			for i := 1; i <= 1500; i++ {
				j := src.Next()
				if j == nil {
					t.Fatal("population stream ran dry")
				}
				if j.ID != i {
					t.Fatalf("job ID %d, want %d", j.ID, i)
				}
				if j.Submit < last {
					t.Fatalf("job %d: submit %v < previous %v", i, j.Submit, last)
				}
				last = j.Submit
				if !inMix[j.Class] {
					t.Fatalf("job %d: class %v not in mix", i, j.Class)
				}
				if _, err := j.CheckDAG(new(DAGScratch)); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				for _, task := range j.Tasks {
					if task.ID != nextTaskID {
						t.Fatalf("job %d: task ID %d, want %d", i, task.ID, nextTaskID)
					}
					if task.JobID != j.ID {
						t.Fatalf("job %d: task JobID %d", i, task.JobID)
					}
					nextTaskID++
				}
			}
		})
	}
}

// TestPopulationSkewSpreadsRates checks Zipf skew actually concentrates load:
// with S > 1, client 0 must submit far more jobs than the median client.
func TestPopulationSkewSpreadsRates(t *testing.T) {
	pop := &Population{
		Clients: 100,
		Mix:     SingleClass(ClassSynthetic),
		Skew:    Skew{Kind: "zipf", S: 1.2},
		Seed:    11,
	}
	src, err := pop.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Count per-client emissions via the merge core directly.
	ps := src.(*populationSource)
	counts := make([]int, pop.Clients)
	for i := 0; i < 20000; i++ {
		_, client := ps.next()
		counts[client]++
	}
	if counts[0] < 5*counts[50] {
		t.Errorf("zipf skew too flat: client0=%d client50=%d", counts[0], counts[50])
	}
}

func TestPopulationValidate(t *testing.T) {
	base := func() *Population {
		return &Population{Clients: 10, Mix: SingleClass(ClassSynthetic), Seed: 1}
	}
	cases := []struct {
		name   string
		mutate func(*Population)
	}{
		{"zero clients", func(p *Population) { p.Clients = 0 }},
		{"empty mix", func(p *Population) { p.Mix = nil }},
		{"unknown class", func(p *Population) { p.Mix = []ClassShare{{Class: Class(99), Weight: 1}} }},
		{"zero weight", func(p *Population) { p.Mix[0].Weight = 0 }},
		{"negative rate scale", func(p *Population) { p.RateScale = -1 }},
		{"too many clients", func(p *Population) { p.Clients = MaxClients + 1 }},
		{"unknown skew", func(p *Population) { p.Skew.Kind = "pareto" }},
		{"negative zipf s", func(p *Population) { p.Skew = Skew{Kind: "zipf", S: -2} }},
		{"bad arrival", func(p *Population) { p.Arrival = PoissonArrivals{Rate: 0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted an invalid population")
			}
			if _, err := p.Source(); err == nil {
				t.Error("Source accepted an invalid population")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid population rejected: %v", err)
	}
}

func TestParseSkew(t *testing.T) {
	for _, name := range []string{"", "none", "zipf", "Lognormal", "ZIPF"} {
		if _, err := ParseSkew(name); err != nil {
			t.Errorf("ParseSkew(%q): %v", name, err)
		}
	}
	if _, err := ParseSkew("pareto"); err == nil {
		t.Error("unknown skew accepted")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for c := 0; c < 1000; c++ {
			s := DeriveSeed(base, c)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at base=%d client=%d", base, c)
			}
			seen[s] = true
		}
	}
}

// streamFingerprints are the FNV-1a folds of (ID, submit bits, task count)
// over the first 2·10⁴ jobs of fingerprintPopulation(seed), recorded while
// the client merge was still a 4-ary heap. Any change to the merge that
// reorders, drops or alters a job moves them.
var streamFingerprints = [...]uint64{0xc63e1ed042c80dc2, 0x4efabc32008c2d03, 0x0124a0df5db0a137, 0xa50190dbf04433ed}

// fingerprintPopulation is the end-to-end stream benchmark's population
// (2:1 synthetic/gaming mix, Zipf skew) at 10⁴ clients.
func fingerprintPopulation(seed int64) *Population {
	return &Population{
		Clients: 10000,
		Mix: []ClassShare{
			{Class: ClassSynthetic, Weight: 2},
			{Class: ClassGaming, Weight: 1},
		},
		Skew: Skew{Kind: "zipf"},
		Seed: seed,
	}
}

// TestPopulationStreamFingerprint pins the population stream's content,
// folded the way the end-to-end stream benchmark folds it.
func TestPopulationStreamFingerprint(t *testing.T) {
	const jobs = 20000
	for seed, want := range streamFingerprints {
		src, err := fingerprintPopulation(int64(seed)).Source()
		if err != nil {
			t.Fatal(err)
		}
		fold := uint64(14695981039346656037)
		for i := 0; i < jobs; i++ {
			j := src.Next()
			for _, v := range [3]uint64{uint64(j.ID), math.Float64bits(float64(j.Submit)), uint64(len(j.Tasks))} {
				fold ^= v
				fold *= 1099511628211
			}
		}
		src.Close()
		if fold != want {
			t.Errorf("seed %d: fingerprint %#016x, want %#016x", seed, fold, want)
		}
	}
}

// TestThinningArrivalsZeroRate pins that the thinning processes never
// arrive when their dominating rate is 0 or the time is already +Inf, as
// PoissonArrivals does, instead of spinning on sin(+Inf) = NaN.
func TestThinningArrivalsZeroRate(t *testing.T) {
	inf := sim.Time(math.Inf(1))
	for _, p := range []ArrivalProcess{
		DiurnalArrivals{BaseRate: 0.2, Period: 86400, Amplitude: 0.9},
		FlashcrowdArrivals{BaseRate: 0.2, StartAt: 10, Spike: 50, HalfLife: 5},
	} {
		r := rand.New(rand.NewSource(1))
		for _, tc := range []struct {
			at   sim.Time
			mult float64
		}{{0, 0}, {0, 5e-324}, {inf, 1}} {
			if got := p.NextAfter(tc.at, tc.mult, r); got != inf {
				t.Errorf("%s: NextAfter(%v, %v) = %v, want +Inf", p, tc.at, tc.mult, got)
			}
		}
	}
}

// TestPopulationZeroRateClients is the regression test for Source hanging
// when a client's rate multiplier is 0: Validate rejects a Zipf weight that
// underflows, and clients whose multiplier underflows anyway (a subnormal
// RateScale) stream +Inf submits instead of hanging.
func TestPopulationZeroRateClients(t *testing.T) {
	steep := &Population{Clients: 1000, Mix: SingleClass(ClassGaming), Skew: Skew{Kind: "zipf", S: 400}}
	var zerr *ZipfUnderflowError
	if err := steep.Validate(); !errors.As(err, &zerr) || zerr.Clients != 1000 || zerr.S != 400 {
		t.Errorf("Validate = %v, want a *ZipfUnderflowError for 1000 clients at s=400", err)
	}
	if _, err := steep.Source(); !errors.As(err, &zerr) {
		t.Errorf("Source error = %v, want a *ZipfUnderflowError", err)
	}

	tiny := &Population{Clients: 1000, Mix: SingleClass(ClassGaming), Skew: Skew{Kind: "zipf"}, RateScale: 5e-324}
	done := make(chan sim.Time, 1)
	go func() {
		src, err := tiny.Source()
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		defer src.Close()
		done <- src.Next().Submit
	}()
	select {
	case submit := <-done:
		if !math.IsInf(float64(submit), 1) {
			t.Errorf("first submit %v, want +Inf", submit)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Source or Next hung on zero-rate clients")
	}
}

// TestPopulationHeapBudget is the streaming engine's memory contract:
// draining 10⁶ jobs from 10⁶ clients keeps state O(clients), never O(jobs).
// The stream keeps ~50 MiB live (≈50 B/client plus merge-queue chunks), so
// 128 MiB fails any per-job leak. Dense IDs and non-decreasing submits are
// checked at full scale on the way.
func TestPopulationHeapBudget(t *testing.T) {
	const n, budget = 1_000_000, 128 << 20 // clients and jobs; heap bytes
	pop := &Population{Clients: n, Skew: Skew{Kind: "zipf"}, Seed: 42,
		Mix: []ClassShare{{Class: ClassSynthetic, Weight: 2}, {Class: ClassGaming, Weight: 1}}}
	src, err := pop.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	var ms runtime.MemStats
	var peak uint64
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	sample()
	var last sim.Time
	for i := 1; i <= n; i++ {
		j := src.Next()
		if j == nil {
			t.Fatalf("stream ran dry at job %d", i)
		}
		if j.ID != i {
			t.Fatalf("job ID %d at position %d", j.ID, i)
		}
		if j.Submit < last {
			t.Fatalf("job %d: submit %v < previous %v", i, j.Submit, last)
		}
		last = j.Submit
		if i%50_000 == 0 {
			sample()
		}
	}
	t.Logf("peak heap %d MiB, budget %d MiB", peak>>20, budget>>20)
	if peak > budget {
		t.Errorf("peak heap %d MiB exceeds the %d MiB budget: per-job state is leaking", peak>>20, budget>>20)
	}
}
