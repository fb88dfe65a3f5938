package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"atlarge/internal/workload"
)

// FuzzSpecValidate drives arbitrary bytes through the spec boundary that
// `scenario validate` and POST /v1/jobs expose: Parse, Validate, sweepSize
// and, for a sweep within MaxCells, Expand. None of them may panic, Expand
// must agree with Validate, no expanded cell may ask for more clients than a
// population accepts or exceed a field cap (jobs, sites, machines, cores),
// and none may draw tasks wider than its widest machine. The committed
// corpus (testdata/fuzz) holds the example specs and the oversized-clients
// and oversized-shape specs, base and swept.
func FuzzSpecValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		verr := s.Validate()
		if sweepSize(s) > MaxCells {
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
			for field, v := range map[string]int{
				"workload.jobs": c.Workload.Jobs, "cluster.sites": c.Cluster.Sites,
				"cluster.machines": c.Cluster.Machines, "cluster.cores": c.Cluster.Cores,
			} {
				if v > fieldCaps[field].max {
					t.Fatalf("cell %v expands to %s %d, cap %d", c.Params, field, v, fieldCaps[field].max)
				}
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

// FuzzCheckpointLoad writes arbitrary bytes as the checkpoint file of task
// id and loads it, as a resume does after a crash or a hand-edited
// directory. Load must not panic, and it either misses or returns exactly
// the metrics the file stores under id: a file stored under another ID
// misses. A hit stored again must load back the same. The committed corpus
// (testdata/fuzz) holds a valid file, a torn one, one under another ID,
// non-JSON bytes and wrong metric types.
func FuzzCheckpointLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, id string) {
		c := &checkpoint{dir: t.TempDir()}
		if err := os.WriteFile(c.taskPath(id), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Load(id)
		if !ok {
			return
		}
		var tf taskFile
		if err := json.Unmarshal(raw, &tf); err != nil || tf.ID != id {
			t.Fatalf("hit for %q on a file stored under %q (decode error %v)", id, tf.ID, err)
		}
		if !reflect.DeepEqual(got, tf.Metrics) {
			t.Fatalf("hit returned %+v, the file stores %+v", got, tf.Metrics)
		}
		again := &checkpoint{dir: t.TempDir()}
		again.Store(id, got)
		if err := again.Err(); err != nil {
			t.Fatal(err)
		}
		if back, ok := again.Load(id); !ok || !reflect.DeepEqual(back, got) {
			t.Fatalf("stored hit loads back as %+v (hit %t), want %+v", back, ok, got)
		}
	})
}
