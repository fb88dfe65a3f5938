package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atlarge/internal/sim"
)

func TestJobTotalWork(t *testing.T) {
	j := &Job{Tasks: []Task{
		{ID: 1, CPUs: 2, Runtime: 10},
		{ID: 2, CPUs: 4, Runtime: 5},
	}}
	if got := j.TotalWork(); got != 40 {
		t.Errorf("TotalWork = %v, want 40", got)
	}
}

func TestCriticalPath(t *testing.T) {
	// Diamond: 1 -> {2,3} -> 4 with runtimes 10, 20, 5, 1.
	j := &Job{Tasks: []Task{
		{ID: 1, Runtime: 10},
		{ID: 2, Runtime: 20, Deps: []int{1}},
		{ID: 3, Runtime: 5, Deps: []int{1}},
		{ID: 4, Runtime: 1, Deps: []int{2, 3}},
	}}
	if got, err := j.CheckDAG(new(DAGScratch)); got != 31 || err != nil {
		t.Errorf("CheckDAG = %v, %v, want critical path 31", got, err)
	}
	bag := &Job{Tasks: []Task{{ID: 1, Runtime: 7}, {ID: 2, Runtime: 3}}}
	if got, err := bag.CheckDAG(new(DAGScratch)); got != 7 || err != nil {
		t.Errorf("bag CheckDAG = %v, %v, want critical path 7 (longest task)", got, err)
	}
}

func TestIsWorkflow(t *testing.T) {
	bag := &Job{Tasks: []Task{{ID: 1}, {ID: 2}}}
	if bag.IsWorkflow() {
		t.Error("bag reported as workflow")
	}
	wf := &Job{Tasks: []Task{{ID: 1}, {ID: 2, Deps: []int{1}}}}
	if !wf.IsWorkflow() {
		t.Error("workflow not detected")
	}
}

func TestValidateDAG(t *testing.T) {
	tests := []struct {
		name    string
		tasks   []Task
		wantErr bool
	}{
		{"valid chain", []Task{{ID: 1}, {ID: 2, Deps: []int{1}}}, false},
		{"cycle", []Task{{ID: 1, Deps: []int{2}}, {ID: 2, Deps: []int{1}}}, true},
		{"self-cycle", []Task{{ID: 1, Deps: []int{1}}}, true},
		{"missing dep", []Task{{ID: 1, Deps: []int{99}}}, true},
		{"duplicate id", []Task{{ID: 1}, {ID: 1}}, true},
		{"empty", nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			j := &Job{ID: 1, Tasks: tt.tasks}
			_, err := j.CheckDAG(new(DAGScratch))
			if (err != nil) != tt.wantErr {
				t.Errorf("CheckDAG = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTraceSortAndSpan(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		{ID: 1, Submit: 30},
		{ID: 2, Submit: 10},
		{ID: 3, Submit: 20},
	}}
	tr.SortBySubmit()
	if tr.Jobs[0].ID != 2 || tr.Jobs[2].ID != 1 {
		t.Errorf("sort order = %v,%v,%v", tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID)
	}
	if got := tr.Span(); got != 20 {
		t.Errorf("Span = %v, want 20", got)
	}
	empty := &Trace{}
	if got := empty.Span(); got != 0 {
		t.Errorf("empty Span = %v, want 0", got)
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := PoissonArrivals{Rate: 0.5}
	times := p.Times(20000, r)
	if len(times) != 20000 {
		t.Fatalf("len = %d", len(times))
	}
	// Mean gap should be ~2s.
	gap := float64(times[len(times)-1]) / float64(len(times))
	if math.Abs(gap-2) > 0.1 {
		t.Errorf("mean gap = %v, want ~2", gap)
	}
}

func TestArrivalsNonDecreasingProperty(t *testing.T) {
	procs := []ArrivalProcess{
		PoissonArrivals{Rate: 1},
		WeibullArrivals{Scale: 1, K: 0.7},
		DiurnalArrivals{BaseRate: 1, Period: 100, Amplitude: 0.5},
		FlashcrowdArrivals{BaseRate: 1, StartAt: 10, Spike: 20, HalfLife: 5},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, p := range procs {
			times := p.Times(200, r)
			for i := 1; i < len(times); i++ {
				if times[i] < times[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFlashcrowdRateShape(t *testing.T) {
	f := FlashcrowdArrivals{BaseRate: 1, StartAt: 100, Spike: 50, HalfLife: 60}
	if got := f.RateAt(50); got != 1 {
		t.Errorf("pre-crowd rate = %v, want 1", got)
	}
	if got := f.RateAt(100); got != 50 {
		t.Errorf("peak rate = %v, want 50", got)
	}
	// One half-life later the surge is halved: 1 + 49/2 = 25.5.
	if got := f.RateAt(160); math.Abs(got-25.5) > 1e-9 {
		t.Errorf("rate after one half-life = %v, want 25.5", got)
	}
	// Eventually back near base.
	if got := f.RateAt(100000); got > 1.001 {
		t.Errorf("rate long after = %v, want ~1", got)
	}
}

func TestFlashcrowdArrivalsConcentration(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := FlashcrowdArrivals{BaseRate: 0.01, StartAt: 1000, Spike: 100, HalfLife: 100}
	times := f.Times(500, r)
	before, inBurst := 0, 0
	for _, tm := range times {
		switch {
		case tm < 1000:
			before++
		case tm <= 1500:
			inBurst++
		}
	}
	// Arrival rate inside the burst window should dwarf the pre-burst rate.
	rateBefore := float64(before) / 1000
	rateBurst := float64(inBurst) / 500
	if rateBurst < 5*rateBefore || inBurst == 0 {
		t.Errorf("burst rate %v not >> base rate %v (%d vs %d arrivals)", rateBurst, rateBefore, inBurst, before)
	}
}

func TestDiurnalArrivalsModulation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := DiurnalArrivals{BaseRate: 1, Period: 1000, Amplitude: 0.9}
	times := d.Times(20000, r)
	// Count arrivals in the peak half-period vs trough half-period of each cycle.
	peak, trough := 0, 0
	for _, tm := range times {
		phase := math.Mod(float64(tm), 1000) / 1000
		if phase < 0.5 {
			peak++ // sin positive half
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("peak %d <= trough %d; diurnal modulation missing", peak, trough)
	}
}

func TestGeneratorProducesValidTraces(t *testing.T) {
	classes := []Class{
		ClassSynthetic, ClassScientific, ClassComputerEngineering,
		ClassBusinessCritical, ClassBigData, ClassGaming, ClassIndustrial,
	}
	for _, c := range classes {
		t.Run(c.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			tr := StandardGenerator(c).Generate(100, r)
			if len(tr.Jobs) != 100 {
				t.Fatalf("jobs = %d", len(tr.Jobs))
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			for _, j := range tr.Jobs {
				if j.Class != c {
					t.Fatalf("job class = %v, want %v", j.Class, c)
				}
				for _, task := range j.Tasks {
					if task.Runtime <= 0 || task.CPUs < 1 || task.RuntimeEstimate <= 0 {
						t.Fatalf("invalid task %+v", task)
					}
				}
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g := StandardGenerator(ClassScientific)
	a := g.Generate(50, rand.New(rand.NewSource(7)))
	b := g.Generate(50, rand.New(rand.NewSource(7)))
	for i := range a.Jobs {
		if a.Jobs[i].Submit != b.Jobs[i].Submit || len(a.Jobs[i].Tasks) != len(b.Jobs[i].Tasks) {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
}

func TestScientificWorkloadIsWorkflowHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := StandardGenerator(ClassScientific).Generate(200, r)
	wf := 0
	for _, j := range tr.Jobs {
		if j.IsWorkflow() {
			wf++
		}
	}
	if float64(wf)/200 < 0.4 {
		t.Errorf("workflow fraction = %v, want >= 0.4", float64(wf)/200)
	}
}

func TestBigDataEstimatesAreNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := StandardGenerator(ClassBigData).Generate(50, r)
	var relErr []float64
	for _, j := range tr.Jobs {
		for _, task := range j.Tasks {
			relErr = append(relErr, math.Abs(float64(task.RuntimeEstimate-task.Runtime))/float64(task.Runtime))
		}
	}
	mean := 0.0
	for _, e := range relErr {
		mean += e
	}
	mean /= float64(len(relErr))
	if mean < 0.5 {
		t.Errorf("big-data mean relative estimate error = %v, want >= 0.5", mean)
	}
}

func TestClassString(t *testing.T) {
	if ClassBigData.String() != "BD" || ClassGaming.String() != "G" {
		t.Error("class String() mismatch")
	}
	if Class(99).String() != "Class(99)" {
		t.Errorf("unknown class = %q", Class(99).String())
	}
}

func TestDeadlinesAssigned(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	tr := StandardGenerator(ClassIndustrial).Generate(30, r)
	for _, j := range tr.Jobs {
		if j.Deadline <= 0 {
			t.Fatalf("job %d missing deadline", j.ID)
		}
		if cp, _ := j.CheckDAG(new(DAGScratch)); j.Deadline < cp {
			t.Fatalf("job %d deadline %v below critical path %v", j.ID, j.Deadline, cp)
		}
	}
}

func TestChainIntoLevelsKeepsAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		job := &Job{ID: 1}
		n := 5 + r.Intn(30)
		for i := 1; i <= n; i++ {
			job.Tasks = append(job.Tasks, Task{ID: i, Runtime: sim.Duration(1 + r.Float64())})
		}
		chainIntoLevels(job, r)
		_, err := job.CheckDAG(new(DAGScratch))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMaxTaskCPUs pins each class's widest task and checks it against
// 20000 drawn tasks: none is wider, and the widest is drawn.
func TestMaxTaskCPUs(t *testing.T) {
	want := map[Class]int{
		ClassSynthetic: 1, ClassScientific: 3, ClassComputerEngineering: 7, ClassBusinessCritical: 15,
		ClassBigData: 3, ClassGaming: 1, ClassIndustrial: 1,
	}
	for class, width := range want {
		g := StandardGenerator(class)
		if got := g.MaxTaskCPUs(); got != width {
			t.Errorf("%v: MaxTaskCPUs = %d, want %d", class, got, width)
		}
		r := rand.New(rand.NewSource(1))
		widest := 0
		for i := 0; i < 20000; i++ {
			widest = max(widest, int(g.TaskCPUs.Sample(r)))
		}
		if max(widest, 1) != width {
			t.Errorf("%v: widest of 20000 drawn tasks is %d, MaxTaskCPUs says %d", class, widest, width)
		}
	}
}
