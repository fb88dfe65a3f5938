package heap4

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestHeapMatchesSortedReference drives the heap and a sorted-slice
// reference through the same random interleavings of Push, Pop and
// Heapify, with heavy ties in Hi so Lo decides most comparisons, and
// requires every popped node to equal the reference minimum.
func TestHeapMatchesSortedReference(t *testing.T) {
	cmpNode := func(a, b Node) int {
		switch {
		case Less(a, b):
			return -1
		case Less(b, a):
			return 1
		}
		return 0
	}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var h, ref []Node
		lo := uint64(0)
		// Four distinct Hi values, one of them at the top of the range so the
		// borrow out of the low word is exercised across the whole word.
		his := []uint64{0, 1, TimeKey(2.5), math.MaxUint64}
		node := func() Node {
			lo++
			// Lo is unique, as every caller guarantees; randomizing its high
			// bits keeps insertion order from matching Lo order.
			return Node{Hi: his[r.Intn(len(his))], Lo: uint64(r.Intn(1<<16))<<32 | lo}
		}
		insert := func(n Node) {
			i, _ := slices.BinarySearchFunc(ref, n, cmpNode)
			ref = slices.Insert(ref, i, n)
		}
		check := func(op string, got Node) {
			want := ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("seed %d: %s returned %+v, reference minimum %+v", seed, op, got, want)
			}
		}
		for op := 0; op < 2000; op++ {
			switch c := r.Intn(10); {
			case c < 4:
				n := node()
				h = Push(h, n)
				insert(n)
			case c < 9:
				if len(h) == 0 {
					continue
				}
				var got Node
				got, h = Pop(h)
				check("Pop", got)
			default:
				// Append a run without order, then rebuild.
				for k := r.Intn(20); k > 0; k-- {
					n := node()
					h = append(h, n)
					ref = append(ref, n)
				}
				r.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
				Heapify(h)
				slices.SortFunc(ref, cmpNode)
			}
			if len(h) != len(ref) {
				t.Fatalf("seed %d: heap holds %d nodes, reference %d", seed, len(h), len(ref))
			}
		}
		for len(h) > 0 {
			var got Node
			got, h = Pop(h)
			check("drain Pop", got)
		}
	}
}

// TestLessIsLexicographic pins the 128-bit compare against the two-branch
// definition it replaces.
func TestLessIsLexicographic(t *testing.T) {
	vals := []uint64{0, 1, 2, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for _, ah := range vals {
		for _, al := range vals {
			for _, bh := range vals {
				for _, bl := range vals {
					a, b := Node{ah, al}, Node{bh, bl}
					want := ah < bh || (ah == bh && al < bl)
					if got := Less(a, b); got != want {
						t.Fatalf("Less(%+v, %+v) = %v, want %v", a, b, got, want)
					}
				}
			}
		}
	}
}

// TestTimeKeyOrder checks TimeKey preserves numeric order and folds -0.
func TestTimeKeyOrder(t *testing.T) {
	if TimeKey(math.Copysign(0, -1)) != TimeKey(0) {
		t.Error("negative zero does not key as zero")
	}
	ts := []float64{0, 1e-300, 0.5, 1, 1.5, 1e9, math.Inf(1)}
	for i := 1; i < len(ts); i++ {
		if TimeKey(ts[i-1]) >= TimeKey(ts[i]) {
			t.Errorf("TimeKey(%v) >= TimeKey(%v)", ts[i-1], ts[i])
		}
	}
}
