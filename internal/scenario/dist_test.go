package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"atlarge/internal/dist"
)

// startSweepWorkers boots k real protocol workers serving sweep jobs and
// dials them.
func startSweepWorkers(t *testing.T, k int) []*dist.Client {
	t.Helper()
	clients := make([]*dist.Client, k)
	for i := range clients {
		w := &dist.Worker{Build: map[string]dist.Builder{DistJobKind: WorkerBuilder()}, Parallelism: 2}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		c, err := dist.Dial(context.Background(), srv.URL)
		if err != nil {
			t.Fatalf("dial worker %d: %v", i, err)
		}
		clients[i] = c
	}
	return clients
}

// renderAll renders a report in every output format, concatenated, so one
// comparison covers text, JSON, and CSV bytes at once.
func renderAll(t *testing.T, s *Spec, cells []Scenario, opt Options) []byte {
	t.Helper()
	rep, err := Run(context.Background(), s, cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistributeByteIdentical is the subsystem's core guarantee: a sweep
// distributed across worker processes renders byte-identically — text, JSON,
// and CSV — to the in-process run, at any worker count. Workers share traces
// through their own long-lived memo, across claims, so over every committed
// sched and autoscale spec this also checks that neither way of sharing
// changes a report byte.
func TestDistributeByteIdentical(t *testing.T) {
	specs := map[string]func(*testing.T) (*Spec, []Scenario){
		"valid-sweep": func(t *testing.T) (*Spec, []Scenario) {
			s := specJSON(t, validSweepSpec)
			cells, err := Expand(s)
			if err != nil {
				t.Fatal(err)
			}
			return s, cells
		},
	}
	for _, name := range committedTraceSpecs {
		specs[name] = func(t *testing.T) (*Spec, []Scenario) { return loadCommitted(t, name) }
	}
	for name, load := range specs {
		t.Run(name, func(t *testing.T) {
			s, cells := load(t)
			want := renderAll(t, s, cells, Options{Parallelism: 4})
			for _, workers := range []int{1, 3} {
				clients := startSweepWorkers(t, workers)
				opt := Options{Parallelism: 2}
				if err := Distribute(&opt, s, clients, &dist.Stats{}); err != nil {
					t.Fatal(err)
				}
				got := renderAll(t, s, cells, opt)
				if !bytes.Equal(got, want) {
					t.Errorf("%d-worker distributed report differs from in-process run", workers)
				}
			}
		})
	}
}

// TestDistributeSeedReplicaOverrides: option overrides must reach the remote
// plans — a distributed run with --seed/--replicas matches the in-process
// run under the same overrides, not the spec defaults.
func TestDistributeSeedReplicaOverrides(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(99)
	want := renderAll(t, s, cells, Options{Parallelism: 2, Seed: &seed, Replicas: 3})

	clients := startSweepWorkers(t, 2)
	opt := Options{Parallelism: 2, Seed: &seed, Replicas: 3}
	if err := Distribute(&opt, s, clients, &dist.Stats{}); err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, s, cells, opt)
	if !bytes.Equal(got, want) {
		t.Error("distributed run with overrides differs from in-process run")
	}
}

// flakySweepWorker speaks the real protocol with real sweep results but dies
// (connection abort) after `limit` tasks of every claim — a worker process
// SIGKILLed mid-claim.
func flakySweepWorker(t *testing.T, limit int) *dist.Client {
	t.Helper()
	build := WorkerBuilder()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/handshake", func(rw http.ResponseWriter, r *http.Request) {
		raw, _ := json.Marshal(dist.Handshake{Service: dist.HandshakeService, Protocol: dist.ProtocolVersion})
		rw.Write(append(raw, '\n'))
	})
	mux.HandleFunc("POST /v1/tasks:claim", func(rw http.ResponseWriter, r *http.Request) {
		var req dist.ClaimRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			panic(http.ErrAbortHandler)
		}
		plan, err := build(req.Job)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		flusher, _ := rw.(http.Flusher)
		write := func(v any) {
			raw, _ := json.Marshal(v)
			rw.Write(append(raw, '\n'))
			flusher.Flush()
		}
		write(&dist.Message{Type: dist.MsgClaim})
		sent := 0
		for _, i := range req.Tasks {
			if sent == limit {
				break
			}
			res, rerr := plan.Tasks[i].Run(r.Context())
			m := &dist.Message{Index: i, ID: plan.Tasks[i].ID, Type: dist.MsgResult, Result: res}
			if rerr != nil {
				m = &dist.Message{Index: i, ID: plan.Tasks[i].ID, Type: dist.MsgError, Error: rerr.Error()}
			}
			write(m)
			sent++
		}
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c, err := dist.Dial(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDistributeWorkerDeathByteIdentical is satellite 3's invariant: kill a
// worker mid-range and the sweep still completes — no (cell, replica) result
// dropped or duplicated, only lost work re-run — byte-identical to an
// uninterrupted in-process run.
func TestDistributeWorkerDeathByteIdentical(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, s, cells, Options{Parallelism: 4})

	// The dying worker fails before its first result, so every claim it
	// takes is lost, whatever its size.
	clients := append(startSweepWorkers(t, 1), flakySweepWorker(t, 0))
	dstats := &dist.Stats{}
	opt := Options{Parallelism: 2}
	if err := Distribute(&opt, s, clients, dstats); err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, s, cells, opt)
	if !bytes.Equal(got, want) {
		t.Error("report after mid-range worker death differs from uninterrupted in-process run")
	}
	if dstats.Redispatched() == 0 {
		t.Error("dying worker cost no re-dispatches; the failure path did not run")
	}
}

// TestDistributeSharesCheckpointStore: the checkpoint directory doubles as
// the distributed run's shared result cache — an in-process run and a
// distributed run of the same sweep write the identical store (same file
// set, same bytes), and a distributed rerun serves entirely from it.
func TestDistributeSharesCheckpointStore(t *testing.T) {
	s := specJSON(t, validSweepSpec)
	cells, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	local, distributed := t.TempDir(), t.TempDir()
	wantRep := renderAll(t, s, cells, Options{Parallelism: 2, Checkpoint: local})

	clients := startSweepWorkers(t, 2)
	opt := Options{Parallelism: 2, Checkpoint: distributed}
	if err := Distribute(&opt, s, clients, &dist.Stats{}); err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, s, cells, opt); !bytes.Equal(got, wantRep) {
		t.Error("checkpointed distributed report differs from in-process run")
	}

	// Same store contents, byte for byte.
	wantFiles := checkpointFiles(t, local)
	gotFiles := checkpointFiles(t, distributed)
	if len(gotFiles) == 0 || len(gotFiles) != len(wantFiles) {
		t.Fatalf("distributed store holds %d files, in-process %d", len(gotFiles), len(wantFiles))
	}
	for rel, want := range wantFiles {
		got, ok := gotFiles[rel]
		if !ok {
			t.Errorf("distributed store is missing %s", rel)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("store file %s differs between in-process and distributed runs", rel)
		}
	}

	// A rerun over the warm store settles every task from cache: the workers
	// see no claims (their completion counters stay empty).
	dstats := &dist.Stats{}
	opt2 := Options{Parallelism: 2, Checkpoint: distributed}
	if err := Distribute(&opt2, s, clients, dstats); err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, s, cells, opt2); !bytes.Equal(got, wantRep) {
		t.Error("warm-store distributed rerun differs")
	}
	if wcs := dstats.WorkerCompletions(); len(wcs) != 0 {
		t.Errorf("warm-store rerun still sent %v to workers", wcs)
	}
}

// checkpointFiles reads every task file under a checkpoint root, keyed by
// path relative to the root.
func checkpointFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	paths, err := filepath.Glob(filepath.Join(root, "*", "task-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			t.Fatal(err)
		}
		out[rel] = raw
	}
	return out
}
