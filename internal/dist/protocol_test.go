package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomMessage draws one protocol line: mostly results with payloads from
// tiny fragments up to multi-hundred-KiB reports (far past the reader's
// buffer size, so the long-line path is exercised), plus error envelopes with
// hostile strings, heartbeats, claims, and dones.
func randomMessage(rng *rand.Rand) *Message {
	switch rng.Intn(10) {
	case 0:
		return &Message{Type: MsgClaim, Tasks: rng.Intn(1 << 20)}
	case 1:
		return &Message{Type: MsgHeartbeat}
	case 2:
		return &Message{Type: MsgDone, Completed: rng.Intn(1 << 20)}
	case 3:
		// Error envelopes carry arbitrary text: newlines in the original
		// error must survive framing (JSON escapes them), as must quotes,
		// control bytes, and non-ASCII.
		hostile := []string{"plain failure", "line\nbreak", `quo"tes`, "nul\x00byte", "日本語 🚀", strings.Repeat("e", 9000)}
		return &Message{
			Type:  MsgError,
			Index: rng.Intn(1 << 20),
			ID:    fmt.Sprintf("cell/policy=sjf#%d", rng.Intn(64)),
			Error: hostile[rng.Intn(len(hostile))],
		}
	default:
		return &Message{
			Type:   MsgResult,
			Index:  rng.Intn(1 << 20),
			ID:     fmt.Sprintf("cell/load=0.7#%d", rng.Intn(64)),
			Result: randomPayload(rng),
		}
	}
}

// randomPayload builds a compact JSON fragment shaped like real task output
// (metric arrays), occasionally large enough to span many reader buffers.
func randomPayload(rng *rand.Rand) json.RawMessage {
	n := rng.Intn(8) + 1
	if rng.Intn(8) == 0 {
		n = 4096 + rng.Intn(4096) // a few hundred KiB encoded
	}
	type metric struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit,omitempty"`
	}
	ms := make([]metric, n)
	for i := range ms {
		ms[i] = metric{
			Name:  fmt.Sprintf("metric_%d", i),
			Value: rng.NormFloat64() * 1e6,
			Unit:  []string{"s", "jobs/s", "", "%"}[rng.Intn(4)],
		}
	}
	raw, err := json.Marshal(ms)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestProtocolRoundTripProperty frames randomized message sequences through
// the writer and reads them back: every sequence must round-trip with no
// loss, no reordering, and byte-exact payloads.
func TestProtocolRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		msgs := make([]*Message, n)
		var buf bytes.Buffer
		flushes := 0
		mw := newMsgWriter(&buf, func() { flushes++ })
		for i := range msgs {
			msgs[i] = randomMessage(rng)
			if err := mw.Write(msgs[i]); err != nil {
				t.Fatalf("seed %d: write %d: %v", seed, i, err)
			}
		}
		if flushes != n {
			t.Fatalf("seed %d: %d writes flushed %d times", seed, n, flushes)
		}

		mr := newMsgReader(&buf)
		for i, want := range msgs {
			got, err := mr.Read()
			if err != nil {
				t.Fatalf("seed %d: read %d: %v", seed, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: message %d round-tripped wrong:\n got %+v\nwant %+v", seed, i, got, want)
			}
		}
		if _, err := mr.Read(); err != io.EOF {
			t.Fatalf("seed %d: trailing read error = %v, want io.EOF", seed, err)
		}
	}
}

// TestProtocolTruncationDetected: a stream cut mid-line must surface as an
// error, never as a silently dropped or half-parsed message.
func TestProtocolTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	mw := newMsgWriter(&buf, nil)
	for i := 0; i < 3; i++ {
		if err := mw.Write(&Message{Type: MsgResult, Index: i, ID: "t", Result: json.RawMessage(`[1,2,3]`)}); err != nil {
			t.Fatal(err)
		}
	}
	whole := buf.Bytes()
	// Cut inside the final line (between its start and its newline).
	cut := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 3
	mr := newMsgReader(bytes.NewReader(whole[:cut]))
	for i := 0; i < 2; i++ {
		if _, err := mr.Read(); err != nil {
			t.Fatalf("intact line %d: %v", i, err)
		}
	}
	_, err := mr.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated line error = %v, want a truncation error", err)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error does not say so: %v", err)
	}
}

// TestProtocolRejectsGarbageLine: a non-JSON line is a protocol error.
func TestProtocolRejectsGarbageLine(t *testing.T) {
	mr := newMsgReader(strings.NewReader("this is not json\n"))
	if _, err := mr.Read(); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// FuzzMsgReader feeds arbitrary bytes to the line decoder, which reads a
// network peer's stream. Any input must yield messages and then io.EOF or
// an error, never a panic; every message, framed again by msgWriter, must
// read back equal, its result payload compacted and HTML-escaped as
// json.Marshal writes a json.RawMessage. The committed corpus
// (testdata/fuzz/FuzzMsgReader) holds an empty stream, one and two valid
// lines, a trailing fragment, invalid JSON, lines of exactly the 64 KiB read
// buffer and one byte past it, a CRLF ending, and a long result with a '<'
// that the writer escapes.
func FuzzMsgReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mr := newMsgReader(bytes.NewReader(data))
		for n := 0; ; n++ {
			m, err := mr.Read()
			if err != nil {
				return // io.EOF or a decode error ends the stream
			}
			if n > len(data) {
				t.Fatalf("%d messages from %d bytes", n, len(data))
			}
			want := *m
			if want.Result != nil {
				var compact, escaped bytes.Buffer
				if err := json.Compact(&compact, want.Result); err != nil {
					t.Fatalf("message %d: decoded result %q is not JSON: %v", n, want.Result, err)
				}
				json.HTMLEscape(&escaped, compact.Bytes())
				want.Result = escaped.Bytes()
			}
			var line bytes.Buffer
			if err := newMsgWriter(&line, nil).Write(m); err != nil {
				t.Fatalf("message %d: reframe %+v: %v", n, m, err)
			}
			got, err := newMsgReader(&line).Read()
			if err != nil {
				t.Fatalf("message %d: reframed line %q: %v", n, line.String(), err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("message %d round-tripped wrong:\n got %+v\nwant %+v", n, *got, want)
			}
		}
	})
}
