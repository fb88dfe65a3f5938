package scenario

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// committedTraceSpecs are the committed example specs of the domains that
// drive a job-trace workload (sched and autoscale): the specs whose cells
// share traces inside Run.
var committedTraceSpecs = []string{
	"policy-vs-load",
	"client-skew",
	"flashcrowd-arrivals",
	"environment-shapes",
	"autoscaler-vs-load",
	"smoke-32",
}

// loadCommitted loads and expands a committed example spec.
func loadCommitted(t *testing.T, name string) (*Spec, []Scenario) {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, cells
}

// traceFingerprint hashes every job and task field of tr, in job order.
func traceFingerprint(tr *workload.Trace) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%q\n", tr.Name)
	for _, j := range tr.Jobs {
		fmt.Fprintf(h, "%+v\n", *j)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedTraceFingerprint runs every committed trace spec at parallelism
// 4 and checks that each shared trace is built exactly once per (workload,
// replica) — 2 traces for smoke-32's 32 tasks — that no cell wrote to it
// (every job and task field fingerprints the same after the run as when it
// was built), and that the run released every trace. Under -race it also
// catches a cell writing to a trace another cell reads.
func TestSharedTraceFingerprint(t *testing.T) {
	for _, name := range committedTraceSpecs {
		t.Run(name, func(t *testing.T) {
			s, cells := loadCommitted(t, name)
			type built struct {
				tr  *workload.Trace
				sum [sha256.Size]byte
			}
			var mu sync.Mutex
			bases := map[traceKey]built{}
			memo := &traceMemo{built: func(key traceKey, tr *workload.Trace) {
				sum := traceFingerprint(tr)
				mu.Lock()
				defer mu.Unlock()
				if _, dup := bases[key]; dup {
					t.Errorf("trace %v built twice", key)
				}
				bases[key] = built{tr, sum}
			}}
			if _, err := run(context.Background(), s, cells, Options{Parallelism: 4}, memo); err != nil {
				t.Fatal(err)
			}
			workloads := map[string]bool{}
			for i := range cells {
				workloads[cells[i].WorkloadID()] = true
			}
			_, replicas := Effective(s, Options{})
			if want := len(workloads) * replicas; len(bases) != want {
				t.Errorf("built %d traces, want %d (%d workloads × %d replicas)", len(bases), want, len(workloads), replicas)
			}
			// smoke-32's 32 tasks (16 cells × 2 replicas) differ only in
			// policy and load: one trace per replica.
			if name == "smoke-32" && len(bases) != 2 {
				t.Errorf("smoke-32 built %d traces, want 2", len(bases))
			}
			for key, b := range bases {
				if traceFingerprint(b.tr) != b.sum {
					t.Errorf("trace %v changed during the run", key)
				}
			}
			if len(memo.entries) != 0 {
				t.Errorf("%d traces still held after the run", len(memo.entries))
			}
		})
	}
}

// axisValues lists a few valid values for every axis of the sched and
// autoscale domains.
var axisValues = map[string][]any{
	"class":      {"scientific", "gaming", "big-data"},
	"arrival":    {"poisson", "diurnal", "flashcrowd"},
	"jobs":       {6.0, 9.0},
	"load":       {0.4, 0.8, 1.2},
	"clients":    {3.0, 5.0},
	"skew":       {"none", "zipf", "lognormal"},
	"policy":     {"fcfs", "sjf", "portfolio"},
	"kind":       {"CL", "G", "MCD"},
	"sites":      {1.0, 2.0},
	"machines":   {2.0, 4.0},
	"cores":      {4.0, 8.0},
	"autoscaler": {"React", "Hist", "Token"},
	"engine":     {"in-vitro", "in-silico"},
	"boot_delay": {30.0, 90.0},
	"max_cores":  {64.0, 256.0},
}

// TestSharingKeyGuard checks the Generative flags that sharing trusts, for
// every axis of the sched and autoscale domains: sweeping an axis not
// flagged Generative leaves every cell's unscaled trace byte-identical (on a
// generated class and on a client population alike), and sweeping a
// Generative axis changes the WorkloadID.
func TestSharingKeyGuard(t *testing.T) {
	bases := map[string][]string{
		"sched": {
			`"policy": "fcfs", "workload": {"class": "scientific", "jobs": 8}`,
			`"policy": "fcfs", "workload": {"class": "gaming", "jobs": 8, "clients": 4, "skew": "zipf"}`,
		},
		"autoscale": {
			`"autoscale": {"autoscaler": "React"}, "workload": {"class": "scientific", "jobs": 8}`,
			`"autoscale": {"autoscaler": "React"}, "workload": {"class": "gaming", "jobs": 8, "clients": 4, "skew": "zipf"}`,
		},
	}
	for _, domain := range []string{"sched", "autoscale"} {
		d, err := DomainByName(domain)
		if err != nil {
			t.Fatal(err)
		}
		for name, def := range d.Axes() {
			values, ok := axisValues[name]
			if !ok {
				t.Errorf("%s axis %s: no test values; add some to axisValues", domain, name)
				continue
			}
			for bi, base := range bases[domain] {
				if def.Generative && bi == 0 {
					continue // skew needs clients: sweep generative axes on the population
				}
				sweep := fmt.Sprintf("%q: [", name)
				for i, v := range values {
					if i > 0 {
						sweep += ", "
					}
					sweep += fmt.Sprintf("%#v", v)
				}
				s := specJSON(t, fmt.Sprintf(`{"version": 2, "name": "g", "domain": %q, %s, "sweep": {%s]}}`, domain, base, sweep))
				cells, err := Expand(s)
				if err != nil {
					t.Fatalf("%s axis %s: %v", domain, name, err)
				}
				if def.Generative {
					ids := map[string]bool{}
					for i := range cells {
						ids[cells[i].WorkloadID()] = true
					}
					if len(ids) != len(cells) {
						t.Errorf("%s axis %s is Generative but %d cells share %d workload IDs", domain, name, len(cells), len(ids))
					}
					continue
				}
				var want [sha256.Size]byte
				for i := range cells {
					tr, err := cells[i].baseTrace(7)
					if err != nil {
						t.Fatal(err)
					}
					if sum := traceFingerprint(tr); i == 0 {
						want = sum
					} else if sum != want {
						t.Errorf("%s axis %s is not Generative but cell %s builds a different trace than %s",
							domain, name, cells[i].ID(), cells[0].ID())
					}
				}
			}
		}
	}
}

// TestSharedTraceErrorsNameTheirCell removes an imported trace after the
// spec validated, so every cell of the run fails on the one shared build:
// each failure must name its own cell and no other.
func TestSharedTraceErrorsNameTheirCell(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.csv")
	if err := os.WriteFile(path, []byte("job_id,submit_s,task_id,cpus,runtime_s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := specJSON(t, fmt.Sprintf(`{
		"version": 1, "name": "gone",
		"workload": {"trace": %q, "load": 0.5},
		"cluster": {"machines": 2},
		"replicas": 2,
		"sweep": {"policy": ["fcfs", "sjf", "easy-bf"]}
	}`, path))
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), s, cells, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("run over a removed trace succeeded")
	}
	lines := strings.Split(err.Error(), "\n")
	if want := len(cells) * 2; len(lines) != want {
		t.Fatalf("%d failures, want %d:\n%v", len(lines), want, err)
	}
	for i, line := range lines {
		own := cells[i/2].ID()
		for j := range cells {
			id := cells[j].ID()
			if named := strings.Contains(line, id); named != (id == own) {
				t.Errorf("failure %d of cell %s: names %s = %v: %s", i, own, id, named, line)
			}
		}
	}
}

// TestRunAllocBudget bounds the bytes one Run of smoke-32 allocates on two
// workers, after a warm-up run: its 32 cells build 2 traces, and each sched
// cell borrows a simulator and a header copy from the run's free lists, so
// the run grows 2 simulators, their kernels and about 2 header copies, not
// 32. It allocated 4.02–4.09 MiB on linux/amd64 (go1.24), 6.25–6.29 MiB
// under the race detector; each budget is that plus 25%. Without the
// simulator free list it allocates about 22 MiB, and without the header
// copy free list 5.4 MiB. Per-job allocations, which cost fewer bytes, are
// held by the allocation-count tests of sched and workload. The test does
// not run in parallel, since TotalAlloc counts every goroutine's
// allocations.
func TestRunAllocBudget(t *testing.T) {
	const mib = 1 << 20
	budget := uint64(51 * mib / 10)
	if raceEnabled {
		budget = 79 * mib / 10
	}
	s, cells := loadCommitted(t, "smoke-32")
	opt := Options{Parallelism: 2}
	if _, err := Run(context.Background(), s, cells, opt); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(context.Background(), s, cells, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Run of smoke-32 allocated %.2f MiB", float64(got)/mib)
	if got > budget {
		t.Errorf("Run of smoke-32 allocated %.2f MiB, budget %.2f MiB", float64(got)/mib, float64(budget)/mib)
	}
}

// TestPortfolioCellReuseParity runs portfolio and static sched cells on
// simulators borrowed from one memo's free list, dirtied by every earlier
// run, and holds each task's metrics bit for bit against the same task on
// new simulators (a cell without a memo), over seeds 0–9. The borrowed runs
// must start far fewer kernels than they run simulations.
func TestPortfolioCellReuseParity(t *testing.T) {
	s := specJSON(t, `{
		"version": 1, "name": "pf-reuse", "policy": "portfolio",
		"workload": {"class": "sci", "jobs": 90},
		"cluster": {"machines": 6},
		"sweep": {"policy": ["portfolio", "sjf"], "load": [0.6, 1.1]}
	}`)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	memo := &traceMemo{}
	var (
		mu      sync.Mutex
		counted bool // count the kernel lives of borrowed runs
		lives   int
		kernels = map[*sim.Kernel]bool{}
	)
	sim.SetKernelObserver(func(k *sim.Kernel) {
		mu.Lock()
		defer mu.Unlock()
		if counted {
			lives++
			kernels[k] = true
		}
	})
	defer sim.SetKernelObserver(nil)
	count := func(on bool) {
		mu.Lock()
		counted = on
		mu.Unlock()
	}
	for seed := int64(0); seed < 10; seed++ {
		var tasks []planTask
		if _, err := layoutPlan(cells, seed, 2, func(pt planTask) func(context.Context) ([]MetricValue, error) {
			tasks = append(tasks, pt)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, pt := range tasks {
			fresh := *pt.cell
			want, err := fresh.domain.Run(&fresh, pt.workloadSeed, pt.simSeed)
			if err != nil {
				t.Fatal(err)
			}
			shared := *pt.cell
			shared.traces = memo
			key := traceKey{workloadID: pt.workloadID, seed: pt.workloadSeed}
			memo.reserve(key)
			count(true)
			got, err := shared.domain.Run(&shared, pt.workloadSeed, pt.simSeed)
			count(false)
			memo.release(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d, %s: %d metrics, fresh %d", seed, pt.cell.ID(), len(got), len(want))
			}
			for i := range got {
				if got[i].Name != want[i].Name || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("seed %d, %s: metric %+v, fresh %+v", seed, pt.cell.ID(), got[i], want[i])
				}
			}
		}
	}
	if len(kernels) == 0 || len(kernels) > lives/10 {
		t.Fatalf("borrowed runs started %d kernel lives on %d kernels", lives, len(kernels))
	}
}

// TestHeaderCopiesNotShared has cells on four goroutines take copies of one
// shared trace's job headers from one memo, rescale them and give them back,
// 50 times each. No two cells may hold one copy at once: each checks that
// its writes survive while it holds its copy, and under -race a shared copy
// is a data race too. The memo must then keep at most as many copies as
// were held at once, none of them holding a job's tasks, and the shared
// trace must be as built.
func TestHeaderCopiesNotShared(t *testing.T) {
	tr := workload.StandardGenerator(workload.ClassScientific).Generate(50, rand.New(rand.NewSource(1)))
	want := tr.Clone()
	memo := &traceMemo{}
	const cells = 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		held = map[*headerCopy]bool{}
	)
	for c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 50 {
				hc := memo.copyHeaders(tr)
				mu.Lock()
				shared := held[hc]
				held[hc] = true
				mu.Unlock()
				if shared {
					t.Error("two cells hold one header copy")
					return
				}
				stamp := sim.Time(c*1000 + round)
				for _, j := range hc.tr.Jobs {
					j.Submit = stamp
				}
				runtime.Gosched()
				for i, j := range hc.tr.Jobs {
					if j.Submit != stamp || j.ID != tr.Jobs[i].ID || &j.Tasks[0] != &tr.Jobs[i].Tasks[0] {
						t.Errorf("cell %d: job %d of its copy changed while it held the copy", c, i)
						return
					}
				}
				mu.Lock()
				delete(held, hc)
				mu.Unlock()
				memo.putHeaders(hc)
			}
		}()
	}
	wg.Wait()
	if n := len(memo.copies); n == 0 || n > cells {
		t.Fatalf("memo keeps %d header copies after %d concurrent cells", n, cells)
	}
	for _, hc := range memo.copies {
		for _, h := range hc.headers {
			if h.Tasks != nil {
				t.Fatal("an idle header copy keeps a job's tasks reachable")
			}
		}
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatal("rescaling header copies changed the shared trace")
	}
}
