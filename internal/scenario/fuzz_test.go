package scenario

import (
	"bytes"
	"testing"

	"atlarge/internal/workload"
)

// FuzzSpecValidate drives arbitrary bytes through the spec boundary that
// `scenario validate` and POST /v1/jobs expose: Parse, Validate, SweepSize
// and, for a sweep within MaxCells, Expand. None of them may panic, Expand
// must agree with Validate, no expanded cell may ask for more clients than a
// population accepts, and none may draw tasks wider than its widest machine. The committed corpus (testdata/fuzz) holds the
// example specs and the oversized-clients specs, base and swept.
func FuzzSpecValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		verr := s.Validate()
		if SweepSize(s) > MaxCells {
			if verr == nil {
				t.Fatalf("Validate accepted a sweep of more than %d cells", MaxCells)
			}
			return
		}
		cells, err := Expand(s)
		if (err == nil) != (verr == nil) {
			t.Fatalf("Expand error %v, Validate error %v", err, verr)
		}
		for _, c := range cells {
			if c.Workload.Clients > workload.MaxClients {
				t.Fatalf("cell %v expands to %d clients, max %d", c.Params, c.Workload.Clients, workload.MaxClients)
			}
			if p, ok := c.domain.(placer); ok && c.Workload.Trace == "" {
				class, _ := workload.ClassByName(c.Workload.Class)
				if field, cores := p.widest(&c); workload.StandardGenerator(class).MaxTaskCPUs() > cores {
					t.Fatalf("cell %v draws tasks wider than its %s of %d", c.Params, field, cores)
				}
			}
		}
	})
}
