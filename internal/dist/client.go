package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the dist protocol to one worker process.
type Client struct {
	// Name labels the worker in metrics and errors (its host:port).
	Name string

	base string
	http *http.Client
	// parallelism and procs are the worker's pool settings from the
	// handshake (see Handshake).
	parallelism, procs int
}

// slots is the local pool a claim with the given Parallel hint gets on the
// worker, resolved the way the worker resolves it; 1 when the worker never
// announced its settings.
func (c *Client) slots(hint int) int {
	switch {
	case c.parallelism > 0:
		return c.parallelism
	case hint > 0:
		return hint
	case c.procs > 0:
		return c.procs
	}
	return 1
}

// normalizeAddr accepts "host:port" or a full http URL.
func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// NewClient wraps a worker address without contacting it; Dial adds the
// handshake.
func NewClient(addr string) *Client {
	base := normalizeAddr(addr)
	return &Client{
		Name: strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://"),
		base: base,
		// No overall timeout: claim streams live as long as the tasks run.
		// Liveness is the dispatcher's per-line lease, not a request bound.
		http: &http.Client{},
	}
}

// Dial connects to a worker and verifies the handshake: the service must
// identify itself and speak this build's protocol generation, so a sweep
// never starts against a mismatched or unrelated HTTP server.
func Dial(ctx context.Context, addr string) (*Client, error) {
	c := NewClient(addr)
	hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, c.base+"/v1/handshake", nil)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", c.Name, err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s: handshake: %w", c.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: worker %s: handshake: status %d", c.Name, resp.StatusCode)
	}
	var h Handshake
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return nil, fmt.Errorf("dist: worker %s: handshake: %w", c.Name, err)
	}
	if h.Service != HandshakeService {
		return nil, fmt.Errorf("dist: worker %s: not an atlarge worker (service %q)", c.Name, h.Service)
	}
	if h.Protocol != ProtocolVersion {
		return nil, fmt.Errorf("dist: worker %s: protocol mismatch: worker speaks %d, this build speaks %d",
			c.Name, h.Protocol, ProtocolVersion)
	}
	c.parallelism, c.procs = h.Parallelism, h.Procs
	return c, nil
}

// DialAll dials every address, failing on the first unreachable or
// mismatched worker.
func DialAll(ctx context.Context, addrs []string) ([]*Client, error) {
	clients := make([]*Client, 0, len(addrs))
	for _, addr := range addrs {
		c, err := Dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

// Claim executes one claim against the worker, invoking onMsg for every
// result and error line as it arrives (claim, heartbeat, and done lines are
// consumed internally). lease bounds the silence between lines: a stream
// that produces nothing — not even a heartbeat — for a full lease is
// abandoned, which is how a hung worker is distinguished from a slow one.
//
// A nil return means the stream terminated healthily with its done line and
// a consistent settled count; every other outcome (broken connection, lease
// expiry, truncation, a done line that disagrees with the lines seen) is an
// error, and the caller re-dispatches whatever tasks it has not observed.
func (c *Client) Claim(ctx context.Context, creq *ClaimRequest, lease time.Duration, onMsg func(*Message) error) error {
	body, err := json.Marshal(creq)
	if err != nil {
		return fmt.Errorf("dist: worker %s: marshal claim: %w", c.Name, err)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, c.base+"/v1/tasks:claim", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: worker %s: %w", c.Name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("dist: worker %s: claim: %w", c.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("dist: worker %s: claim refused: status %d: %s",
			c.Name, resp.StatusCode, strings.TrimSpace(string(raw)))
	}

	// The lease timer cancels the request context when a full lease passes
	// without a line; every line (heartbeats included) re-arms it.
	if lease <= 0 {
		lease = DefaultLease
	}
	timer := time.AfterFunc(lease, cancel)
	defer timer.Stop()

	mr := newMsgReader(resp.Body)
	settled := 0
	sawClaim := false
	for {
		m, err := mr.Read()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("dist: worker %s: stream ended without done line (%d tasks settled)", c.Name, settled)
			}
			if rctx.Err() != nil && ctx.Err() == nil {
				return fmt.Errorf("dist: worker %s: lease expired after %v of silence (%d tasks settled)", c.Name, lease, settled)
			}
			return fmt.Errorf("dist: worker %s: stream: %w", c.Name, err)
		}
		timer.Reset(lease)
		switch m.Type {
		case MsgClaim:
			sawClaim = true
		case MsgHeartbeat:
			// liveness only
		case MsgResult, MsgError:
			if !sawClaim {
				return fmt.Errorf("dist: worker %s: %s line before claim ack", c.Name, m.Type)
			}
			settled++
			if err := onMsg(m); err != nil {
				return err
			}
		case MsgDone:
			if m.Completed != settled {
				return fmt.Errorf("dist: worker %s: done line claims %d tasks, stream carried %d",
					c.Name, m.Completed, settled)
			}
			return nil
		default:
			return fmt.Errorf("dist: worker %s: unknown line type %q", c.Name, m.Type)
		}
	}
}
