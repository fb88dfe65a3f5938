package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"atlarge/internal/workload"
)

func TestJobRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	orig := workload.StandardGenerator(workload.ClassScientific).Generate(20, r)
	var buf bytes.Buffer
	if err := WriteJobs(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(orig.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(got.Jobs), len(orig.Jobs))
	}
	for i, j := range orig.Jobs {
		g := got.Jobs[i]
		if g.ID != j.ID || g.Submit != j.Submit || g.Class != j.Class || g.Deadline != j.Deadline {
			t.Fatalf("job %d header mismatch: %+v vs %+v", i, g, j)
		}
		if len(g.Tasks) != len(j.Tasks) {
			t.Fatalf("job %d tasks = %d, want %d", i, len(g.Tasks), len(j.Tasks))
		}
		for k, task := range j.Tasks {
			gt := g.Tasks[k]
			if gt.ID != task.ID || gt.CPUs != task.CPUs || gt.Runtime != task.Runtime ||
				gt.RuntimeEstimate != task.RuntimeEstimate || len(gt.Deps) != len(task.Deps) {
				t.Fatalf("job %d task %d mismatch: %+v vs %+v", i, k, gt, task)
			}
		}
	}
}

func TestReadJobsErrors(t *testing.T) {
	if _, err := ReadJobs(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadJobs(strings.NewReader("bogus,header\n")); err == nil {
		t.Error("bad header accepted")
	}
	bad := "job_id,submit_s,task_id,cpus,runtime_s,estimate_s,deps,class,deadline_s\nx,0,1,1,1,1,,1,0\n"
	if _, err := ReadJobs(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric job id accepted")
	}
	cyclic := "job_id,submit_s,task_id,cpus,runtime_s,estimate_s,deps,class,deadline_s\n1,0,1,1,1,1,1,1,0\n"
	if _, err := ReadJobs(strings.NewReader(cyclic)); err == nil {
		t.Error("self-dependent task accepted")
	}
	// A bad number on line 3 (the second task row) is refused by line.
	const header = "job_id,submit_s,task_id,cpus,runtime_s,estimate_s,deps,class,deadline_s\n"
	const good = "1,0,1,1,10,10,,1,0\n"
	for _, c := range []struct{ name, row, field string }{
		{"NaN submit", "2,NaN,1,1,10,10,,1,0", "submit"},
		{"negative submit", "2,-1,1,1,10,10,,1,0", "submit"},
		{"negative cpus", "2,0,1,-3,10,10,,1,0", "cpus"},
		{"zero cpus", "2,0,1,0,10,10,,1,0", "cpus"},
		{"negative runtime", "2,0,1,1,-10,10,,1,0", "runtime"},
		{"infinite runtime", "2,0,1,1,Inf,10,,1,0", "runtime"},
		{"NaN estimate", "2,0,1,1,10,NaN,,1,0", "estimate"},
		{"negative estimate", "2,0,1,1,10,-1,,1,0", "estimate"},
		{"infinite deadline", "2,0,1,1,10,10,,1,+Inf", "deadline"},
		{"negative deadline", "2,0,1,1,10,10,,1,-5", "deadline"},
	} {
		_, err := ReadJobs(strings.NewReader(header + good + c.row + "\n"))
		if want := "line 3 " + c.field; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, want)
		}
	}
}
