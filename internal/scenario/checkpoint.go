package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// checkpoint persists completed (cell, replica) results of one sweep so an
// interrupted run can resume to a byte-identical report. It implements the
// executor's Cache: Load serves a previously stored result without
// re-running the task, Store writes one as it completes.
//
// Layout: <root>/<runHash>/ holds one JSON file per completed task, named
// by a hash of the task ID (cell IDs contain '/' and '='), plus a
// human-readable manifest.json. runHash is a content hash over the spec
// document, the effective seed, and the effective replica count — the
// invalidation rule: edit the spec, change the seed, or change the replica
// count and the run keys a fresh directory, so stale results can never leak
// into a different experiment design.
type checkpoint struct {
	// root is the user-given checkpoint directory (the --checkpoint value,
	// used in messages); dir is root/<runHash>, where the files live.
	root string
	dir  string

	// mu guards err; file operations themselves are per-task independent.
	mu  sync.Mutex
	err error
}

// taskFile is the persisted result of one (cell, replica) task. ID is
// stored and verified on load, so a filename hash collision degrades to a
// re-run instead of serving the wrong cell's metrics.
type taskFile struct {
	ID      string        `json:"id"`
	Metrics []MetricValue `json:"metrics"`
}

// manifest describes a run directory for humans and tooling.
type manifest struct {
	Name     string `json:"name"`
	Domain   string `json:"domain"`
	Seed     int64  `json:"seed"`
	Replicas int    `json:"replicas"`
	Cells    int    `json:"cells"`
	Tasks    int    `json:"tasks"`
}

// RunHash is the content hash identifying one (spec, seed, replicas) run:
// sha256 over the spec's canonical JSON (maps marshal with sorted keys, so
// the bytes are deterministic for a given document) plus the effective seed
// and replica count. It keys the checkpoint run directory, and the serve
// layer reuses it as the durable job ID — identical sweeps submitted by
// concurrent clients hash to the same job.
func RunHash(s *Spec, seed int64, replicas int) (string, error) {
	specJSON, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("scenario: hash spec: %w", err)
	}
	h := sha256.New()
	h.Write(specJSON)
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(seed))
	binary.LittleEndian.PutUint64(tail[8:], uint64(replicas))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// openCheckpoint creates (or reopens) the run directory for this
// (spec, seed, replicas) under root and writes its manifest.
func openCheckpoint(root string, s *Spec, seed int64, replicas, cells int) (*checkpoint, error) {
	hash, err := RunHash(s, seed, replicas)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, hash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: checkpoint: %w", err)
	}
	m := manifest{
		Name:     s.Name,
		Domain:   s.Domain,
		Seed:     seed,
		Replicas: replicas,
		Cells:    cells,
		Tasks:    cells * replicas,
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: checkpoint: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(raw, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("scenario: checkpoint: %w", err)
	}
	return &checkpoint{root: root, dir: dir}, nil
}

// taskPath maps a task ID to its file.
func (c *checkpoint) taskPath(id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(c.dir, "task-"+hex.EncodeToString(sum[:])[:32]+".json")
}

// Load returns the persisted result for a task, if a valid file exists.
// Unreadable, torn, or mismatched files count as missing — the task simply
// re-runs — so a kill mid-write can never corrupt a resumed report.
func (c *checkpoint) Load(id string) ([]MetricValue, bool) {
	raw, err := os.ReadFile(c.taskPath(id))
	if err != nil {
		return nil, false
	}
	var tf taskFile
	if err := json.Unmarshal(raw, &tf); err != nil || tf.ID != id {
		return nil, false
	}
	return tf.Metrics, true
}

// Store persists one completed task atomically, so concurrent workers and
// abrupt kills leave either a complete file or none. The first failure is
// latched and surfaced through Err after the run.
func (c *checkpoint) Store(id string, ms []MetricValue) {
	raw, err := json.Marshal(taskFile{ID: id, Metrics: ms})
	if err == nil {
		err = WriteFileAtomic(c.taskPath(id), raw)
	}
	if err != nil {
		c.setErr(err)
	}
}

// WriteFileAtomic lands data at path completely or not at all: it writes a
// temp file in the same directory and renames it over path, removing the
// temp file on any error, so a SIGKILL mid-write can never leave a torn
// document for a resume or a job recovery to trip over.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// setErr latches the first storage failure.
func (c *checkpoint) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// Err returns the first storage failure of the run, nil when all writes
// landed.
func (c *checkpoint) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
