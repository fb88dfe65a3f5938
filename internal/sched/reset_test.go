package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// How a parity step runs its trace.
const (
	viaRun          = iota // Run on the materialized trace
	viaSource              // RunSource over the trace
	viaBrokenSource        // RunSource with a bad job past the first chunk
)

// resetStep is one run of the reset parity sequence.
type resetStep struct {
	policy string
	class  workload.Class
	kinds  []cluster.Kind
	jobs   int
	mode   int
	onJob  bool
	seed   int64
}

func (st resetStep) String() string {
	return fmt.Sprintf("%s on %d %v jobs, %v, mode %d, OnJob %t, seed %d",
		st.policy, st.jobs, st.class, st.kinds, st.mode, st.onJob, st.seed)
}

// resetSteps draws the sequence: every third run is small (a few jobs on
// one environment kind), the others large (more jobs than one feed chunk
// on two or three kinds joined), so sizes go large, small, large. Policies
// cycle through the registry in a shuffled order, and traces alternate
// between bag and DAG classes.
func resetSteps(r *rand.Rand, n int) []resetStep {
	kinds := []cluster.Kind{cluster.KindCluster, cluster.KindGrid, cluster.KindCloud, cluster.KindMultiCluster, cluster.KindGeoDistributed}
	bags := []workload.Class{workload.ClassSynthetic, workload.ClassComputerEngineering, workload.ClassBusinessCritical, workload.ClassGaming}
	// Big-data traces are left out: their long queues make Random's
	// shuffles take seconds.
	dags := []workload.Class{workload.ClassScientific, workload.ClassIndustrial}
	var policies []string
	steps := make([]resetStep, n)
	for i := range steps {
		if len(policies) == 0 {
			policies = PolicyNames()
			r.Shuffle(len(policies), func(a, b int) { policies[a], policies[b] = policies[b], policies[a] })
		}
		st := resetStep{policy: policies[0], onJob: r.Intn(2) == 0, seed: r.Int63()}
		policies = policies[1:]
		if i%2 == 0 {
			st.class = bags[r.Intn(len(bags))]
		} else {
			st.class = dags[r.Intn(len(dags))]
		}
		perm := r.Perm(len(kinds))
		if i%3 == 1 {
			st.jobs = 5 + r.Intn(30)
			st.kinds = []cluster.Kind{kinds[perm[0]]}
			st.mode = r.Intn(2)
		} else {
			st.jobs = feedBatch + 40 + r.Intn(60)
			for _, k := range perm[:2+r.Intn(2)] {
				st.kinds = append(st.kinds, kinds[k])
			}
			st.mode = r.Intn(3)
		}
		steps[i] = st
	}
	return steps
}

// resetTrace generates the step's trace with submits compressed 10×, so
// queues stay long and a stopped run leaves work in every structure.
func resetTrace(st resetStep) *workload.Trace {
	tr := workload.StandardGenerator(st.class).Generate(st.jobs, rand.New(rand.NewSource(st.seed)))
	for _, j := range tr.Jobs {
		j.Submit /= 10
	}
	return tr
}

// runStep runs st's trace on s and returns the result and error text.
func runStep(s *Simulator, st resetStep, tr *workload.Trace) (*Result, string) {
	var res *Result
	var err error
	switch st.mode {
	case viaRun:
		res, err = s.Run()
	case viaSource:
		res, err = s.RunSource(&listSource{jobs: tr.Jobs})
	case viaBrokenSource:
		// Job k is in the second feed chunk: the run stops with tasks
		// queued, running and waiting on dependencies.
		jobs := slices.Clone(tr.Jobs)
		k := feedBatch + (len(jobs)-feedBatch)/2
		bad := jobs[k].Clone()
		if st.seed%2 == 0 {
			bad.Submit = jobs[k-1].Submit - 1
		} else {
			bad.Tasks[0].Deps = []int{-1}
		}
		jobs[k] = bad
		res, err = s.RunSource(&listSource{jobs: jobs})
	}
	if err != nil {
		return res, err.Error()
	}
	return res, ""
}

// leftovers sums up the state a run leaves behind in s, which a reused
// simulator must clear before its next run.
func leftovers(s *Simulator) [8]int {
	slots, pending := 0, 0
	for _, l := range s.estFinish {
		slots += len(l)
	}
	if s.dispatchPending {
		pending = 1
	}
	return [...]int{len(s.pendingDeps), len(s.dependents), len(s.depEdges), len(s.estFinish), slots,
		s.states.live(), s.queue.n, pending}
}

// TestSimulatorResetParity moves one simulator with Reset through a seeded
// sequence of runs: every registered policy, bag and DAG traces, one to
// three environment kinds, sizes going large, small, large, runs stopped
// by a bad job mid-stream, and OnJob set on some runs and not on the next.
// Each run must give the Result, error and OnJob stream of a fresh
// simulator bit for bit, and leave the same state behind; a stale OnJob
// would grow an earlier run's stream, so the streams are compared last. The
// reused simulator runs every step on one kernel, reset per run, and each
// run's traced per-name event and stream counts must equal the fresh run's.
func TestSimulatorResetParity(t *testing.T) {
	steps := resetSteps(rand.New(rand.NewSource(11)), 30)
	reused := new(Simulator)
	got := make([][]JobStats, len(steps))
	want := make([][]JobStats, len(steps))
	var profiles []*sim.Profile // one per kernel life, in start order
	sim.SetKernelObserver(func(k *sim.Kernel) {
		p := sim.NewProfile()
		k.SetTracer(p)
		profiles = append(profiles, p)
	})
	defer sim.SetKernelObserver(nil)
	var (
		kernel              *sim.Kernel // the reused simulator's
		policies, dagTraces = map[string]bool{}, map[bool]bool{}
		kindCounts          = map[int]bool{}
		gdc, onJobDropped   bool
		stopped             [8]int // the largest of each leftover after stopped runs
	)
	for i, st := range steps {
		tr := resetTrace(st)
		pf, err := PolicyByName(st.policy)
		if err != nil {
			t.Fatal(err)
		}
		fresh := new(Simulator)
		fresh.Reset(compositeOf(st.kinds...), tr, pf, st.seed)
		pr, err := PolicyByName(st.policy)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reset(compositeOf(st.kinds...), tr, pr, st.seed)
		if st.onJob {
			fresh.OnJob = func(js JobStats) { want[i] = append(want[i], js) }
			reused.OnJob = func(js JobStats) { got[i] = append(got[i], js) }
		}
		profiles = profiles[:0]
		wantRes, wantErr := runStep(fresh, st, tr)
		gotRes, gotErr := runStep(reused, st, tr)
		if kernel == nil {
			kernel = reused.k
		}
		if reused.k != kernel || len(profiles) != 2 {
			t.Fatalf("step %d (%v): reused simulator runs on a new kernel, or %d kernel lives started, want 2",
				i, st, len(profiles))
		}
		if g, w := profileCounts(profiles[1]), profileCounts(profiles[0]); !slices.Equal(g, w) {
			t.Fatalf("step %d (%v): traced counts %v, fresh %v", i, st, g, w)
		}
		if gotErr != wantErr {
			t.Fatalf("step %d (%v): error %q, fresh %q", i, st, gotErr, wantErr)
		}
		if (gotRes == nil) != (wantRes == nil) || gotRes != nil && !slices.Equal(resultWords(gotRes), resultWords(wantRes)) {
			t.Fatalf("step %d (%v): result %+v, fresh %+v", i, st, gotRes, wantRes)
		}
		if g, w := leftovers(reused), leftovers(fresh); g != w {
			t.Fatalf("step %d (%v): leaves %v behind, fresh %v", i, st, g, w)
		}
		if st.mode == viaBrokenSource {
			for k, v := range leftovers(fresh) {
				stopped[k] = max(stopped[k], v)
			}
		}

		policies[st.policy] = true
		dagTraces[slices.ContainsFunc(tr.Jobs, func(j *workload.Job) bool {
			return slices.ContainsFunc(j.Tasks, func(t workload.Task) bool { return len(t.Deps) > 0 })
		})] = true
		kindCounts[len(st.kinds)] = true
		gdc = gdc || slices.Contains(st.kinds, cluster.KindGeoDistributed)
		onJobDropped = onJobDropped || i > 0 && steps[i-1].onJob && !st.onJob
	}
	for i, st := range steps {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("step %d (%v): %d OnJob calls, fresh %d", i, st, len(got[i]), len(want[i]))
		}
		for k := range got[i] {
			if !slices.Equal(jobStatWords(got[i][k]), jobStatWords(want[i][k])) {
				t.Fatalf("step %d (%v): job %d stats %+v, fresh %+v", i, st, k, got[i][k], want[i][k])
			}
		}
	}

	// The sequence must cover what it claims, and its stopped runs must
	// leave something in each structure a reused run clears.
	if len(policies) != len(PolicyNames()) || len(dagTraces) != 2 || len(kindCounts) != 3 || !gdc || !onJobDropped {
		t.Errorf("sequence covers policies %v, DAG traces %v, kind counts %v, GDC %t, OnJob dropped %t",
			policies, dagTraces, kindCounts, gdc, onJobDropped)
	}
	for k, v := range stopped {
		if v == 0 {
			t.Errorf("no stopped run leaves leftover %d behind (%v)", k, stopped)
		}
	}
}

// profileCounts renders a profile's per-name event counts and per-stream
// access counts, leaving out the wall times.
func profileCounts(p *sim.Profile) []string {
	var out []string
	for _, r := range p.Rows() {
		out = append(out, fmt.Sprintf("%s %d/%d/%d", r.Name, r.Scheduled, r.Fired, r.Cancelled))
	}
	for _, r := range p.Streams() {
		out = append(out, fmt.Sprintf("rand %s %d", r.Stream, r.Accesses))
	}
	return out
}

// TestFreeListConcurrentParity runs a seeded sequence of runs from four
// goroutines on simulators borrowed from one FreeList. Each run must give
// a fresh simulator's Result and error bit for bit; afterwards the list
// holds no more simulators than ran at once, and none keeps its last run's
// environment, trace, policy or arrival closures reachable.
func TestFreeListConcurrentParity(t *testing.T) {
	const workers = 4
	steps := resetSteps(rand.New(rand.NewSource(5)), 24)
	traces := make([]*workload.Trace, len(steps))
	want := make([]*Result, len(steps))
	wantErr := make([]string, len(steps))
	for i, st := range steps {
		traces[i] = resetTrace(st)
		p, err := PolicyByName(st.policy)
		if err != nil {
			t.Fatal(err)
		}
		fresh := new(Simulator)
		fresh.Reset(compositeOf(st.kinds...), traces[i], p, st.seed)
		want[i], wantErr[i] = runStep(fresh, st, traces[i])
	}

	var l FreeList
	var next atomic.Int32
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(steps); i = int(next.Add(1)) - 1 {
				st := steps[i]
				p, err := PolicyByName(st.policy)
				if err != nil {
					t.Error(err)
					return
				}
				s := l.Get()
				s.Reset(compositeOf(st.kinds...), traces[i], p, st.seed)
				got, gotErr := runStep(s, st, traces[i])
				l.Put(s)
				if gotErr != wantErr[i] || (got == nil) != (want[i] == nil) ||
					got != nil && !slices.Equal(resultWords(got), resultWords(want[i])) {
					t.Errorf("step %d (%v): result %+v, error %q; fresh %+v, %q", i, st, got, gotErr, want[i], wantErr[i])
				}
			}
		}()
	}
	wg.Wait()

	if n := len(l.free); n == 0 || n > workers {
		t.Fatalf("free list holds %d simulators after %d workers", n, workers)
	}
	for _, s := range l.free {
		if s.env != nil || s.trace != nil || s.policy != nil || s.feed.next != nil ||
			slices.ContainsFunc(s.feed.batch[:cap(s.feed.batch)], func(b sim.BatchEvent) bool { return b.Fn != nil }) {
			t.Fatal("an idle simulator keeps its last run reachable")
		}
	}
}
