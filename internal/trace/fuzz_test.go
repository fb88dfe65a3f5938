package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"atlarge/internal/sim"
)

// FuzzReadJobs feeds ReadJobs arbitrary CSV. Any input must either be
// refused or decode to a trace that passes Validate, holds only finite,
// non-negative times and tasks of at least one CPU, and survives a
// WriteJobs/ReadJobs round trip unchanged.
func FuzzReadJobs(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadJobs(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded trace fails Validate: %v", err)
		}
		bad := func(v sim.Time) bool { return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v < 0 }
		for _, j := range tr.Jobs {
			if bad(j.Submit) || bad(j.Deadline) {
				t.Fatalf("job %d: submit %v, deadline %v", j.ID, j.Submit, j.Deadline)
			}
			for _, tk := range j.Tasks {
				if bad(tk.Runtime) || bad(tk.RuntimeEstimate) || tk.CPUs < 1 {
					t.Fatalf("job %d task %d: runtime %v, estimate %v, cpus %d", j.ID, tk.ID, tk.Runtime, tk.RuntimeEstimate, tk.CPUs)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteJobs(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJobs(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace refused: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n%s", buf.Bytes())
		}
	})
}
