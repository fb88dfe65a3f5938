package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"atlarge/internal/sim"
)

// refCriticalPath is the map-based CriticalPath that CheckDAG replaced,
// kept as the reference the parity test compares against.
func refCriticalPath(j *Job) sim.Duration {
	memo := make(map[int]sim.Duration, len(j.Tasks))
	byID := make(map[int]*Task, len(j.Tasks))
	for i := range j.Tasks {
		byID[j.Tasks[i].ID] = &j.Tasks[i]
	}
	var finish func(id int) sim.Duration
	finish = func(id int) sim.Duration {
		if v, ok := memo[id]; ok {
			return v
		}
		t := byID[id]
		if t == nil {
			return 0
		}
		var start sim.Duration
		for _, d := range t.Deps {
			if f := finish(d); f > start {
				start = f
			}
		}
		v := start + t.Runtime
		memo[id] = v
		return v
	}
	var cp sim.Duration
	for _, t := range j.Tasks {
		if f := finish(t.ID); f > cp {
			cp = f
		}
	}
	return cp
}

// refValidateDAG is the map-based ValidateDAG that CheckDAG replaced.
func refValidateDAG(j *Job) error {
	byID := make(map[int]*Task, len(j.Tasks))
	for i := range j.Tasks {
		if _, dup := byID[j.Tasks[i].ID]; dup {
			return fmt.Errorf("workload: job %d: duplicate task id %d", j.ID, j.Tasks[i].ID)
		}
		byID[j.Tasks[i].ID] = &j.Tasks[i]
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(j.Tasks))
	var visit func(id int) error
	visit = func(id int) error {
		switch color[id] {
		case gray:
			return fmt.Errorf("workload: job %d: dependency cycle through task %d", j.ID, id)
		case black:
			return nil
		}
		color[id] = gray
		t := byID[id]
		for _, d := range t.Deps {
			if _, ok := byID[d]; !ok {
				return fmt.Errorf("workload: job %d: task %d depends on missing task %d", j.ID, id, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for _, t := range j.Tasks {
		if err := visit(t.ID); err != nil {
			return err
		}
	}
	return nil
}

// randomDAGJob draws a job of n tasks: a bag, or a DAG whose tasks depend
// on earlier ones, with consecutive or scattered IDs (shuffled order
// included), and with probability bad one defect: a cycle, a missing
// dependency, or a duplicate ID.
func randomDAGJob(r *rand.Rand, id, n int, bad float64) *Job {
	j := &Job{ID: id}
	ids := make([]int, n)
	base := r.Intn(1000) - 500
	scattered := r.Intn(2) == 0
	for i := range ids {
		ids[i] = base + i
		if scattered {
			ids[i] = base + 3*i + r.Intn(3)
		}
	}
	dag := r.Intn(4) > 0
	for i := 0; i < n; i++ {
		t := Task{ID: ids[i], JobID: id, CPUs: 1, Runtime: sim.Duration(r.Float64() * 100)}
		if dag && i > 0 {
			for d := r.Intn(4); d > 0; d-- {
				t.Deps = append(t.Deps, ids[r.Intn(i)])
			}
		}
		j.Tasks = append(j.Tasks, t)
	}
	if scattered && r.Intn(2) == 0 {
		r.Shuffle(n, func(a, b int) { j.Tasks[a], j.Tasks[b] = j.Tasks[b], j.Tasks[a] })
	}
	if n > 1 && r.Float64() < bad {
		a, b := r.Intn(n), r.Intn(n)
		switch r.Intn(3) {
		case 0: // a back edge, or a self-loop when a == b
			j.Tasks[a].Deps = append(j.Tasks[a].Deps, j.Tasks[b].ID)
			j.Tasks[b].Deps = append(j.Tasks[b].Deps, j.Tasks[a].ID)
		case 1:
			j.Tasks[a].Deps = append(j.Tasks[a].Deps, base-1-r.Intn(10))
		case 2:
			j.Tasks[a].ID = j.Tasks[b].ID
		}
	}
	return j
}

// TestCheckDAGParity compares CheckDAG, with one scratch reused across jobs
// that grow and then shrink, against the map-based reference bodies: equal
// errors, text included, and for valid jobs equal critical-path bits.
func TestCheckDAGParity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var sc DAGScratch
	sizes := []int{1, 2, 5, 40, 300, 60, 8, 3, 1, 0, 120, 4}
	kinds := map[string]int{}
	for k := 0; k < 3000; k++ {
		j := randomDAGJob(r, k, sizes[k%len(sizes)], 0.3)
		wantErr := refValidateDAG(j)
		cp, err := j.CheckDAG(&sc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("job %d: CheckDAG error %v, reference %v", k, err, wantErr)
		}
		if err != nil {
			for _, kind := range []string{"duplicate", "cycle", "missing"} {
				if strings.Contains(err.Error(), kind) {
					kinds[kind]++
				}
			}
			if cp != 0 {
				t.Fatalf("job %d: critical path %v on an invalid job, want 0", k, cp)
			}
			continue
		}
		if want := refCriticalPath(j); math.Float64bits(float64(cp)) != math.Float64bits(float64(want)) {
			t.Fatalf("job %d: critical path %v, reference %v", k, cp, want)
		}
	}
	for _, kind := range []string{"duplicate", "cycle", "missing"} {
		if kinds[kind] < 100 {
			t.Errorf("only %d jobs failed with a %s error; the generator no longer covers it", kinds[kind], kind)
		}
	}
}
