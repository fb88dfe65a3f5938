package api

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atlarge/internal/scenario"
)

// sweepRecord returns the durable record of a running sweepSpecBody job at
// seed and replicas, as an interrupted server leaves it.
func sweepRecord(t testing.TB, seed int64, replicas int) *jobRecord {
	t.Helper()
	spec, err := scenario.Parse(strings.NewReader(sweepSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := scenario.RunHash(spec, seed, replicas)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &jobRecord{
		ID: id, Kind: jobKindSweep, Name: spec.Name, Domain: spec.Domain,
		Seed: seed, Replicas: replicas, Total: len(cells) * replicas,
		State: jobRunning, Spec: raw,
	}
}

// relaunched returns the jobs RecoverJobs started, after cancelling each
// and waiting for its runner to exit, so no runner outlives the test.
func relaunched(s *Server) []*job {
	s.jobMu.Lock()
	var jobs []*job
	for _, j := range s.jobs {
		if j.exited != nil {
			jobs = append(jobs, j)
		}
	}
	s.jobMu.Unlock()
	for _, j := range jobs {
		j.cancel()
		<-j.exited
	}
	return jobs
}

// TestRecoverRefusesBadRecords: recovery relaunches a running record only
// when it is a sweep job of 1 to 64 replicas whose spec, seed and replicas
// hash to its ID and whose total counts its plan. A 65-replica record, a
// record whose ID belongs to another seed, a run-kind record and one with a
// forged total are each reported as a problem and not relaunched; the
// valid record beside them still is.
func TestRecoverRefusesBadRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := newJobstore(dir)
	if err != nil {
		t.Fatal(err)
	}
	valid := sweepRecord(t, 41, 2)
	tooMany := sweepRecord(t, 42, 65)
	tampered := sweepRecord(t, 43, 2)
	tampered.ID = sweepRecord(t, 44, 2).ID
	run := sweepRecord(t, 45, 2)
	run.Kind = jobKindRun
	forged := sweepRecord(t, 46, 2)
	forged.Total = 1 << 30
	for _, rec := range []*jobRecord{valid, tooMany, tampered, run, forged} {
		if err := store.saveRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{Parallelism: 1, StateDir: dir})
	resumed, restored, err := s.RecoverJobs()
	jobs := relaunched(s)
	if resumed != 1 || restored != 0 || len(jobs) != 1 || jobs[0].id != valid.ID {
		t.Fatalf("recover counts = (%d resumed, %d restored), %d jobs started, want the valid one only", resumed, restored, len(jobs))
	}
	if err == nil {
		t.Fatal("RecoverJobs reported no problem")
	}
	for _, want := range []string{
		tooMany.ID + ": replicas 65, must be in 1..64",
		tampered.ID + ": its spec, seed and replicas hash to " + sweepRecord(t, 43, 2).ID,
		run.ID + `: kind "run", only sweep jobs resume`,
		forged.ID + ": total 1073741824, its plan has 4 tasks",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("recovery problems %q do not say %q", err, want)
		}
	}
}

// FuzzRecoverJobs writes arbitrary bytes as the one job record of a state
// directory, under the ID the bytes name when it is a plain file name, and
// recovers it. RecoverJobs must not panic, and every job it relaunches must
// be a sweep of 1 to 64 replicas whose ID is the RunHash of its record's
// spec, seed and replicas. The committed corpus (testdata/fuzz) holds a
// valid record, a torn one, and a 65-replica, a tampered-ID and a run-kind
// record.
func FuzzRecoverJobs(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		var head struct {
			ID string `json:"id"`
		}
		name := "job"
		if json.Unmarshal(raw, &head) == nil && head.ID != "" && head.ID != "." && head.ID != ".." &&
			!strings.ContainsAny(head.ID, "/\\\x00") {
			name = head.ID
		}
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			return // a name the file system refuses
		}
		if err := os.WriteFile(filepath.Join(dir, name, "job.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Parallelism: 1, StateDir: dir})
		_, _, _ = s.RecoverJobs()
		for _, j := range relaunched(s) {
			var rec jobRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatalf("relaunched job %s from an undecodable record: %v", j.id, err)
			}
			if rec.Kind != jobKindSweep || rec.Replicas < 1 || rec.Replicas > maxReplicas {
				t.Fatalf("relaunched job %s: kind %q, %d replicas", j.id, rec.Kind, rec.Replicas)
			}
			spec, err := scenario.Parse(bytes.NewReader(rec.Spec))
			if err != nil {
				t.Fatalf("relaunched job %s with an unparsable spec: %v", j.id, err)
			}
			if id, err := scenario.RunHash(spec, rec.Seed, rec.Replicas); err != nil || id != j.id {
				t.Fatalf("relaunched job %s, its record hashes to %s (%v)", j.id, id, err)
			}
		}
	})
}
