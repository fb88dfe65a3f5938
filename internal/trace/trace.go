// Package trace implements the GWA-style job-trace archive format the
// paper's dissemination principle calls for (§3.6, FAIR/FOAD): line-oriented
// CSV with a header, one row per task of a datacenter workload.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// jobHeader is the GWA-like column set.
var jobHeader = []string{
	"job_id", "submit_s", "task_id", "cpus", "runtime_s", "estimate_s", "deps", "class", "deadline_s",
}

// WriteJobs encodes a workload trace as GWA-style CSV, one row per task.
func WriteJobs(w io.Writer, tr *workload.Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jobHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, j := range tr.Jobs {
		for _, t := range j.Tasks {
			deps := make([]string, len(t.Deps))
			for i, d := range t.Deps {
				deps[i] = strconv.Itoa(d)
			}
			row := []string{
				strconv.Itoa(j.ID),
				formatF(float64(j.Submit)),
				strconv.Itoa(t.ID),
				strconv.Itoa(t.CPUs),
				formatF(float64(t.Runtime)),
				formatF(float64(t.RuntimeEstimate)),
				strings.Join(deps, ";"),
				strconv.Itoa(int(j.Class)),
				formatF(float64(j.Deadline)),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJobs decodes a GWA-style CSV back into a workload trace. It refuses,
// naming the line, a malformed field, a submit time, runtime, estimate or
// deadline that is not a finite, non-negative number, and fewer than one
// CPU, as well as a trace that fails Validate.
func ReadJobs(r io.Reader) (*workload.Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	if got := strings.Join(rows[0], ","); got != strings.Join(jobHeader, ",") {
		return nil, fmt.Errorf("trace: unexpected header %q", got)
	}
	jobs := map[int]*workload.Job{}
	var order []int
	for ln, row := range rows[1:] {
		if len(row) != len(jobHeader) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", ln+2, len(row), len(jobHeader))
		}
		jobID, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d job_id: %w", ln+2, err)
		}
		submit, err := parseSeconds(row[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d submit: %w", ln+2, err)
		}
		taskID, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d task_id: %w", ln+2, err)
		}
		cpus, err := strconv.Atoi(row[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d cpus: %w", ln+2, err)
		}
		if cpus < 1 {
			return nil, fmt.Errorf("trace: line %d cpus: %d, want at least 1", ln+2, cpus)
		}
		runtime, err := parseSeconds(row[4])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d runtime: %w", ln+2, err)
		}
		estimate, err := parseSeconds(row[5])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d estimate: %w", ln+2, err)
		}
		var deps []int
		if row[6] != "" {
			for _, d := range strings.Split(row[6], ";") {
				dv, err := strconv.Atoi(d)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d deps: %w", ln+2, err)
				}
				deps = append(deps, dv)
			}
		}
		class, err := strconv.Atoi(row[7])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d class: %w", ln+2, err)
		}
		deadline, err := parseSeconds(row[8])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d deadline: %w", ln+2, err)
		}
		job, ok := jobs[jobID]
		if !ok {
			job = &workload.Job{
				ID:       jobID,
				Submit:   sim.Time(submit),
				Class:    workload.Class(class),
				Deadline: sim.Duration(deadline),
			}
			jobs[jobID] = job
			order = append(order, jobID)
		}
		job.Tasks = append(job.Tasks, workload.Task{
			ID:              taskID,
			JobID:           jobID,
			CPUs:            cpus,
			Runtime:         sim.Duration(runtime),
			RuntimeEstimate: sim.Duration(estimate),
			Deps:            deps,
		})
	}
	tr := &workload.Trace{Name: "decoded"}
	for _, id := range order {
		tr.Jobs = append(tr.Jobs, jobs[id])
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return tr, nil
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseSeconds parses a time or duration in seconds: a finite,
// non-negative number.
func parseSeconds(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("%q is not a finite, non-negative number of seconds", field)
	}
	return v, nil
}
