package workload

import (
	"encoding/binary"
	"math"
	"testing"

	"atlarge/internal/heap4"
)

// freeChunks counts the chunks on the queue's free list.
func freeChunks(q *mergeQueue) int {
	n := 0
	for c := q.free; c >= 0; c = q.chunks[c].next {
		n++
	}
	return n
}

// keyAfter derives a key no less than last from one mode byte and the
// entropy that follows it; it returns the bytes it did not consume. The
// modes favour what a population merge and the queue's edge cases meet:
// keys equal to last (zero keys before the first pop), Hi ties broken only
// in Lo, +Inf submit times, and small and large forward steps.
func keyAfter(last heap4.Node, mode byte, in []byte) (heap4.Node, []byte) {
	word := func() uint64 {
		var b [8]byte
		k := copy(b[:], in)
		in = in[k:]
		return binary.LittleEndian.Uint64(b[:])
	}
	satAdd := func(a, d uint64) uint64 {
		if s := a + d; s >= a {
			return s
		}
		return math.MaxUint64
	}
	n := last
	switch mode % 8 {
	case 0: // equal to last
	case 1: // Hi tie, Lo a little ahead
		n.Lo = satAdd(last.Lo, word()&0xff)
	case 2: // Hi tie, Lo anywhere ahead
		n.Lo = satAdd(last.Lo, word())
	case 3: // Hi a little ahead
		n.Hi, n.Lo = satAdd(last.Hi, 1+word()&0xff), word()
	case 4: // +Inf submit time
		n.Hi, n.Lo = max(last.Hi, heap4.TimeKey(math.Inf(1))), word()
	case 5: // Hi anywhere ahead
		n.Hi, n.Lo = satAdd(last.Hi, word()), word()
	case 6: // a client cursor: Lo is client<<32
		n.Hi, n.Lo = satAdd(last.Hi, word()&0xffff), (word()&0xfffff)<<32
	case 7: // a float submit time a gap after last's
		t := math.Float64frombits(last.Hi)
		if last.Hi >= heap4.TimeKey(math.Inf(1)) {
			t = math.Inf(1)
		}
		n.Hi, n.Lo = max(last.Hi, heap4.TimeKey(t+float64(word()&0xffff)/64)), word()
	}
	if n.Hi == last.Hi {
		n.Lo = max(n.Lo, last.Lo)
	}
	return n, in
}

// FuzzMergeQueue is a differential test of the radix queue against heap4
// over random monotone push/pop sequences: the queue is built for size
// keys, an even op byte pops (when anything is queued), an odd one pushes a
// key derived by keyAfter from the last popped key, and a full queue pops
// instead. Every pop, and the final drain, must match the heap. The chunk
// pool must never run dry: an exhausted pool panics in grow, and between
// operations at least two chunks stay free.
func FuzzMergeQueue(f *testing.F) {
	f.Add(uint16(1), []byte{1, 0, 1, 0})
	f.Add(uint16(128), []byte{3, 9, 7, 1, 1, 0, 11, 200, 13, 0, 0, 15, 5, 0})
	f.Add(uint16(129), []byte{9, 0, 9, 0, 5, 0, 7, 3, 1, 2, 0, 0})
	f.Add(uint16(300), []byte{11, 1, 2, 3, 4, 5, 6, 7, 8, 13, 0xff, 0xff, 0, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		n := int(size)%1024 + 1
		q := newMergeQueue(n)
		var h []heap4.Node
		var last heap4.Node
		pop := func() {
			want, rest := heap4.Pop(h)
			h = rest
			got := q.pop()
			if got != want {
				t.Fatalf("pop %#x, want %#x", got, want)
			}
			last = got
		}
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			if len(h) == n || op&1 == 0 && len(h) > 0 {
				pop()
			} else if op&1 == 1 {
				var k heap4.Node
				k, ops = keyAfter(last, op>>1, ops)
				q.push(k)
				h = heap4.Push(h, k)
			}
			if free := freeChunks(&q); free < 2 {
				t.Fatalf("%d keys of %d left %d free chunks", len(h), n, free)
			}
		}
		for len(h) > 0 {
			pop()
		}
	})
}

// TestMergeQueuePushBelowLastPanics pins the monotone precondition.
func TestMergeQueuePushBelowLastPanics(t *testing.T) {
	q := newMergeQueue(2)
	q.push(heap4.Node{Hi: 5})
	q.push(heap4.Node{Hi: 7})
	q.pop()
	defer func() {
		if recover() == nil {
			t.Error("push below the last popped key did not panic")
		}
	}()
	q.push(heap4.Node{Hi: 4, Lo: math.MaxUint64})
}
