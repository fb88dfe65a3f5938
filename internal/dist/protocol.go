// Package dist executes an exec.Plan across worker processes while
// preserving the repo's byte-identical guarantee.
//
// The shape is a dispatcher/worker pair speaking NDJSON over HTTP: a worker
// (`atlarge worker --listen`) exposes a versioned handshake and a claim
// endpoint (POST /v1/tasks:claim) that accepts an explicit list of a job's
// task indices, executes them on the worker's local pool, and streams one
// result or error line per task back over the open response, interleaved
// with heartbeat lines while tasks run. The dispatcher implements the
// executor's Stream seam (exec.StreamFunc): it walks the plan in groups of
// tasks that share an input, hands each worker claims that shrink toward the
// tail of the plan under lease-based claims, detects worker death (broken
// stream or a lease's worth of silence), re-dispatches only the lost tasks,
// and emits ordinary exec.Events — positionally indexed, so callers that
// collect positionally produce output bytes identical to an in-process run
// at any worker count.
//
// The payloads on the wire are opaque JSON: the dispatcher is generic over
// the result type and the worker rebuilds the executable plan from the job
// document through a caller-supplied Build func, so the protocol layer knows
// nothing about scenarios. Task identity is carried redundantly — every
// result line names both the plan index and the task ID — and the dispatcher
// verifies the ID against its own plan, so a version-skewed worker that
// expands a different plan is detected instead of corrupting results.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ProtocolVersion is the wire protocol generation. The handshake and every
// claim carry it; a worker refuses mismatched claims so a mixed-version
// deployment fails loudly at dispatch time instead of corrupting a sweep.
// Generation 2 replaced the claim's range and skip set with an explicit
// task list.
const ProtocolVersion = 2

// Job describes re-creatable work: an opaque spec document plus the
// effective seed and replica count. A worker's Build func turns it into the
// same deterministic plan the dispatcher holds, so task indices mean the
// same (cell, replica) on both sides.
type Job struct {
	// Kind names the plan builder ("sweep"); workers refuse kinds they do
	// not know.
	Kind string `json:"kind"`
	// Spec is the opaque job document (for sweeps: the scenario spec JSON).
	Spec json.RawMessage `json:"spec"`
	// Seed is the effective base seed of the run.
	Seed int64 `json:"seed"`
	// Replicas is the effective replica count of the run.
	Replicas int `json:"replicas"`
}

// Handshake is the body of GET /v1/handshake: the worker introduces itself
// and its protocol generation before any work is dispatched.
type Handshake struct {
	Service  string `json:"service"`
	Protocol int    `json:"protocol"`
	// Parallelism is the worker's own bound on a claim's local pool, 0
	// when the worker takes the claim's Parallel hint; Procs is the
	// worker's GOMAXPROCS, the pool of a claim that neither side sizes.
	// The dispatcher sizes its claims by them.
	Parallelism int `json:"parallelism,omitempty"`
	Procs       int `json:"procs,omitempty"`
}

// HandshakeService is the service name a worker announces.
const HandshakeService = "atlarge-worker"

// ClaimRequest is the body of POST /v1/tasks:claim: one lease over the
// listed tasks of the job. Tasks holds plan indices in strictly ascending
// order; re-dispatch after a partial failure lists only the lost tasks, so
// completed work never re-runs.
type ClaimRequest struct {
	Protocol int   `json:"protocol"`
	Job      Job   `json:"job"`
	Tasks    []int `json:"tasks"`
	// Parallel hints the worker's local pool size; the worker's own
	// configuration wins when set. 0 leaves the choice to the worker.
	Parallel int `json:"parallel,omitempty"`
	// HeartbeatMillis asks for a heartbeat line at least this often while
	// the stream is otherwise quiet; 0 means the worker's default.
	HeartbeatMillis int `json:"heartbeat_ms,omitempty"`
}

// Message line types streamed back from a claim.
const (
	// MsgClaim acknowledges the claim: the first line of every stream,
	// carrying the number of tasks the worker accepted.
	MsgClaim = "claim"
	// MsgResult settles one task with its result payload.
	MsgResult = "result"
	// MsgError settles one task with its error envelope.
	MsgError = "error"
	// MsgHeartbeat keeps the stream known-alive while tasks run.
	MsgHeartbeat = "heartbeat"
	// MsgDone terminates a healthy stream; its Completed count must equal
	// the settled task lines, so a truncated stream is distinguishable from
	// a finished one.
	MsgDone = "done"
)

// Message is one NDJSON line of a claim stream.
type Message struct {
	Type string `json:"type"`
	// Index and ID identify the settled task (result and error lines). The
	// ID is verified against the dispatcher's own plan, so a worker that
	// built a different plan is caught per task.
	Index int    `json:"index,omitempty"`
	ID    string `json:"id,omitempty"`
	// Result is the task's payload (result lines).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the task's failure (error lines), or a stream-level refusal
	// explanation on a claim line with Tasks < 0.
	Error string `json:"error,omitempty"`
	// Tasks is the accepted task count (claim lines).
	Tasks int `json:"tasks,omitempty"`
	// Completed is the settled task count (done lines).
	Completed int `json:"completed,omitempty"`
}

// maxLineBytes bounds one NDJSON line; result payloads are full report
// fragments, so the cap is generous while keeping a corrupt stream from
// ballooning memory.
const maxLineBytes = 64 << 20

// msgWriter frames messages as NDJSON lines and flushes each one, so the
// peer observes lines as they happen, not when a buffer fills.
type msgWriter struct {
	w     io.Writer
	flush func()
}

// newMsgWriter wraps w; flush may be nil.
func newMsgWriter(w io.Writer, flush func()) *msgWriter {
	return &msgWriter{w: w, flush: flush}
}

// Write frames one message.
func (mw *msgWriter) Write(m *Message) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: marshal %s line: %w", m.Type, err)
	}
	if _, err := mw.w.Write(append(raw, '\n')); err != nil {
		return err
	}
	if mw.flush != nil {
		mw.flush()
	}
	return nil
}

// msgReader decodes NDJSON lines into messages.
type msgReader struct {
	br *bufio.Reader
}

// newMsgReader wraps r.
func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Read returns the next message; io.EOF on a clean end of stream. A line
// over maxLineBytes or a trailing fragment without its newline is an error,
// never a silently truncated message.
func (mr *msgReader) Read() (*Message, error) {
	var line []byte
	for {
		chunk, err := mr.br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxLineBytes {
			return nil, fmt.Errorf("dist: protocol line exceeds %d bytes", maxLineBytes)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err == io.EOF && len(line) > 0 {
				return nil, fmt.Errorf("dist: stream truncated mid-line (%d bytes without newline)", len(line))
			}
			return nil, err
		}
		break
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("dist: bad protocol line: %w", err)
	}
	return &m, nil
}
