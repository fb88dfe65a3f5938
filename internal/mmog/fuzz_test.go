package mmog

import (
	"encoding/binary"
	"testing"
)

// decodeMatches reads matches from data: each match is a byte whose value
// mod 8 is its player count, followed by that many player IDs as signed
// varints. Input that ends inside a match ends the list before it.
func decodeMatches(data []byte) []Match {
	var matches []Match
	for len(data) > 0 {
		n := data[0] % 8
		data = data[1:]
		m := Match{ID: len(matches)}
		for ; n > 0; n-- {
			id, k := binary.Varint(data)
			if k <= 0 {
				return matches
			}
			m.Players = append(m.Players, int(id))
			data = data[k:]
		}
		matches = append(matches, m)
	}
	return matches
}

// FuzzSocialNetwork checks BuildSocialNetwork against the map-based
// reference on arbitrary matches. The committed corpus covers negative,
// huge, sparse and repeated IDs, and IDs on both sides of the 4·slots
// bound below which rows are numbered through a dense array.
func FuzzSocialNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSocialParity(t, "fuzz", decodeMatches(data))
	})
}
