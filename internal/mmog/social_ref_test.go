package mmog

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"atlarge/internal/stats"
)

// refSocialNetwork is the map-of-maps SocialNetwork that the CSR form
// replaced, kept as the reference the parity test compares against.
type refSocialNetwork struct {
	// Adj maps player -> co-player -> co-occurrence count.
	Adj map[int]map[int]int
}

func refBuildSocialNetwork(matches []Match) *refSocialNetwork {
	sn := &refSocialNetwork{Adj: make(map[int]map[int]int)}
	for _, m := range matches {
		for i := 0; i < len(m.Players); i++ {
			for j := i + 1; j < len(m.Players); j++ {
				sn.addEdge(m.Players[i], m.Players[j])
				sn.addEdge(m.Players[j], m.Players[i])
			}
		}
	}
	return sn
}

func (sn *refSocialNetwork) addEdge(a, b int) {
	if sn.Adj[a] == nil {
		sn.Adj[a] = make(map[int]int)
	}
	sn.Adj[a][b]++
}

func (sn *refSocialNetwork) Nodes() int { return len(sn.Adj) }

func (sn *refSocialNetwork) Edges() int {
	n := 0
	for _, nb := range sn.Adj {
		n += len(nb)
	}
	return n / 2
}

// ClusteringCoefficient is the reference body with one change: it visits
// players in ascending ID order, where the original followed map order and
// so summed the same coefficients in a different order from call to call.
func (sn *refSocialNetwork) ClusteringCoefficient() float64 {
	var coeffs []float64
	for _, v := range slices.Sorted(maps.Keys(sn.Adj)) {
		nb := sn.Adj[v]
		neigh := make([]int, 0, len(nb))
		for u := range nb {
			neigh = append(neigh, u)
		}
		if len(neigh) < 2 {
			continue
		}
		links := 0
		for i := 0; i < len(neigh); i++ {
			for j := i + 1; j < len(neigh); j++ {
				if _, ok := sn.Adj[neigh[i]][neigh[j]]; ok {
					links++
				}
			}
		}
		possible := len(neigh) * (len(neigh) - 1) / 2
		coeffs = append(coeffs, float64(links)/float64(possible))
	}
	return stats.Mean(coeffs)
}

// parityMatches returns generated match sets plus hand-made matches with
// a repeated player, a one-player match, an empty match and IDs that are
// negative, large and sparse.
func parityMatches() [][]Match {
	sets := [][]Match{
		MatchModel{Players: 2000, TeamSize: 5, Seed: 1}.Generate(3000),
		MatchModel{Players: 400, TeamSize: 5, Seed: 3}.Generate(800),
		MatchModel{Players: 60, TeamSize: 3, Seed: 9}.Generate(40),
		nil,
	}
	return append(sets, []Match{
		{ID: 1, Players: []int{5, -3, 1 << 40, 5}},
		{ID: 2, Players: []int{7}},
		{ID: 3},
		{ID: 4, Players: []int{-3, 7, 1 << 40}},
		{ID: 5, Players: []int{1 << 40, 5}},
		{ID: 6, Players: []int{11, 12}},
	})
}

func TestSocialNetworkParity(t *testing.T) {
	for i, matches := range parityMatches() {
		checkSocialParity(t, fmt.Sprintf("set %d", i), matches)
	}
}

// checkSocialParity fails tb unless BuildSocialNetwork and the reference
// agree on matches: node and edge counts, the players in ascending order,
// every player's neighbours in ascending order with their co-play counts,
// and the clustering coefficient's bits.
func checkSocialParity(tb testing.TB, name string, matches []Match) {
	tb.Helper()
	got, want := BuildSocialNetwork(matches), refBuildSocialNetwork(matches)
	if got.Nodes() != want.Nodes() || got.Edges() != want.Edges() {
		tb.Fatalf("%s: %d nodes, %d edges; reference %d, %d", name, got.Nodes(), got.Edges(), want.Nodes(), want.Edges())
	}
	if !slices.Equal(got.players, slices.Sorted(maps.Keys(want.Adj))) {
		tb.Fatalf("%s: players differ from the reference's, in ascending order", name)
	}
	for r, a := range got.players {
		row, wantNb := got.row(int32(r)), slices.Sorted(maps.Keys(want.Adj[a]))
		if len(row) != len(wantNb) {
			tb.Fatalf("%s: player %d has %d neighbours, reference %d", name, a, len(row), len(wantNb))
		}
		for i, nb := range row {
			b := got.players[nb]
			if b != wantNb[i] {
				tb.Fatalf("%s: neighbour %d of player %d is %d, reference %d", name, i, a, b, wantNb[i])
			}
			if c := int(got.cnt[got.off[r]+int32(i)]); c != want.Adj[a][b] {
				tb.Fatalf("%s: co-plays of %d and %d = %d, reference %d", name, a, b, c, want.Adj[a][b])
			}
		}
	}
	g, w := got.ClusteringCoefficient(), want.ClusteringCoefficient()
	if math.Float64bits(g) != math.Float64bits(w) {
		tb.Fatalf("%s: clustering %v, reference %v", name, g, w)
	}
}

// TestSocialNetworkDeterminism checks that the clustering coefficient, and
// with it every Table 6 value, has the same bits on every call.
func TestSocialNetworkDeterminism(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		matches := MatchModel{Players: 2000, TeamSize: 5, Seed: seed}.Generate(3000)
		first := math.Float64bits(BuildSocialNetwork(matches).ClusteringCoefficient())
		rows := RunTable6(seed)
		for call := 1; call < 5; call++ {
			if cc := math.Float64bits(BuildSocialNetwork(matches).ClusteringCoefficient()); cc != first {
				t.Fatalf("seed %d call %d: clustering bits %x, first call %x", seed, call, cc, first)
			}
			for i, r := range RunTable6(seed) {
				if math.Float64bits(r.Value) != math.Float64bits(rows[i].Value) {
					t.Fatalf("seed %d call %d: %s value %v, first call %v", seed, call, r.Study, r.Value, rows[i].Value)
				}
			}
		}
	}
}
