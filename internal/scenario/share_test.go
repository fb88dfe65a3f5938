package scenario

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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
