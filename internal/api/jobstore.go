package api

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"atlarge/internal/scenario"
)

// jobstore persists job specs, state, and results under the server's
// --state-dir, reusing the scenario checkpoint layout: a job's directory is
// <dir>/<id> where id = scenario.RunHash(spec, seed, replicas) — the same
// directory the sweep's checkpointed (cell, replica) task files land in, so
// a job's metadata and its partial results travel together. A server
// restarted on the same directory re-lists every job: finished jobs serve
// their stored result bytes, interrupted ones re-launch and resume from the
// checkpointed tasks to a byte-identical result.
type jobstore struct {
	dir string
}

// jobRecord is the durable job document (<dir>/<id>/job.json). Spec is the
// canonical marshaling of the parsed spec, so re-parsing it on recovery
// reproduces the exact struct — and therefore the exact RunHash — that
// created the job.
type jobRecord struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Name     string          `json:"name,omitempty"`
	Domain   string          `json:"domain,omitempty"`
	Seed     int64           `json:"seed"` // effective seed (request override or spec)
	Replicas int             `json:"replicas"`
	Total    int             `json:"total"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Spec     json.RawMessage `json:"spec"`
}

// newJobstore creates (or reopens) the state directory.
func newJobstore(dir string) (*jobstore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("api: state dir: %w", err)
	}
	return &jobstore{dir: dir}, nil
}

func (st *jobstore) recordPath(id string) string {
	return filepath.Join(st.dir, id, "job.json")
}

func (st *jobstore) resultPath(id string) string {
	return filepath.Join(st.dir, id, "result.json")
}

// saveRecord persists the job document atomically.
func (st *jobstore) saveRecord(rec *jobRecord) error {
	if err := os.MkdirAll(filepath.Join(st.dir, rec.ID), 0o755); err != nil {
		return fmt.Errorf("api: persist job %s: %w", rec.ID, err)
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("api: persist job %s: %w", rec.ID, err)
	}
	if err := scenario.WriteFileAtomic(st.recordPath(rec.ID), append(raw, '\n')); err != nil {
		return fmt.Errorf("api: persist job %s: %w", rec.ID, err)
	}
	return nil
}

// saveResult persists the finished report bytes atomically.
func (st *jobstore) saveResult(id string, result []byte) error {
	if err := scenario.WriteFileAtomic(st.resultPath(id), result); err != nil {
		return fmt.Errorf("api: persist result %s: %w", id, err)
	}
	return nil
}

// loadRecord reads one job's durable document back.
func (st *jobstore) loadRecord(id string) (*jobRecord, error) {
	raw, err := os.ReadFile(st.recordPath(id))
	if err != nil {
		return nil, err
	}
	var rec jobRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("api: job record %s: %w", id, err)
	}
	return &rec, nil
}

// loadResult reads a finished job's stored report bytes.
func (st *jobstore) loadResult(id string) ([]byte, bool) {
	raw, err := os.ReadFile(st.resultPath(id))
	if err != nil {
		return nil, false
	}
	return raw, true
}

// list returns every recoverable job record under the state directory,
// sorted by ID for deterministic recovery order. Unreadable or torn records
// are skipped (atomic writes make those impossible short of external
// corruption; a skipped record degrades to a lost job, never a crash).
func (st *jobstore) list() ([]*jobRecord, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("api: list state dir: %w", err)
	}
	var recs []*jobRecord
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(st.recordPath(e.Name()))
		if err != nil {
			continue // a checkpoint-only dir (CLI sweeps share the layout)
		}
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID != e.Name() {
			continue
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}
