package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// randomTrace builds a random but valid workload trace: random job widths,
// classes, deadlines, fractional times, and backward-only dependencies (so
// the DAG check always passes). Jobs always have at least one task, since a
// task-less job has no rows in the GWA format and cannot round-trip.
func randomTrace(r *rand.Rand) *workload.Trace {
	classes := []workload.Class{
		workload.ClassSynthetic, workload.ClassScientific, workload.ClassComputerEngineering,
		workload.ClassBusinessCritical, workload.ClassBigData, workload.ClassGaming,
		workload.ClassIndustrial,
	}
	tr := &workload.Trace{Name: "random"}
	taskID := 0
	submit := sim.Time(0)
	for j := 0; j < 1+r.Intn(20); j++ {
		submit += sim.Duration(r.Float64() * 500)
		job := &workload.Job{
			ID:     j + 1,
			Submit: submit,
			Class:  classes[r.Intn(len(classes))],
		}
		if r.Float64() < 0.5 {
			job.Deadline = sim.Duration(r.Float64() * 10000)
		}
		width := 1 + r.Intn(8)
		first := taskID + 1
		for w := 0; w < width; w++ {
			taskID++
			task := workload.Task{
				ID:              taskID,
				JobID:           job.ID,
				CPUs:            1 + r.Intn(16),
				Runtime:         sim.Duration(r.Float64() * 3600),
				RuntimeEstimate: sim.Duration(r.Float64() * 7200),
			}
			// Depend only on earlier tasks of the same job: valid and acyclic.
			for d := first; d < taskID; d++ {
				if r.Float64() < 0.3 {
					task.Deps = append(task.Deps, d)
				}
			}
			job.Tasks = append(job.Tasks, task)
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	return tr
}

// TestJobsRoundTripProperty is a property test: WriteJobs → ReadJobs preserves every
// job and task field for arbitrary valid traces.
func TestJobsRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			orig := randomTrace(rand.New(rand.NewSource(seed)))
			var buf bytes.Buffer
			if err := WriteJobs(&buf, orig); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := ReadJobs(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if len(got.Jobs) != len(orig.Jobs) {
				t.Fatalf("got %d jobs, want %d", len(got.Jobs), len(orig.Jobs))
			}
			// Trace.Name is not part of the GWA format; compare the jobs.
			if !reflect.DeepEqual(got.Jobs, orig.Jobs) {
				for i := range orig.Jobs {
					if !reflect.DeepEqual(got.Jobs[i], orig.Jobs[i]) {
						t.Fatalf("job %d differs:\n got %+v\nwant %+v", i, got.Jobs[i], orig.Jobs[i])
					}
				}
				t.Fatal("traces differ")
			}
		})
	}
}
