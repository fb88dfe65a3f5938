package mmog

import (
	"math/rand"
	"slices"

	"atlarge/internal/stats"
)

// SocialNetwork is the implicit player graph mined from co-play: an edge
// connects two players who appeared in the same match, weighted by
// co-occurrence count (Iosup et al., IEEE IC'14).
//
// The graph is stored in CSR (compressed sparse row) form. Its nodes are
// the players with at least one co-player, in ascending ID order: row i is
// player players[i], its neighbours are the row indices
// nbr[off[i]:off[i+1]] in ascending order, and cnt holds the co-occurrence
// count of each of those edges. A player listed twice in one match
// co-occurs with itself, which shows as a self-loop.
type SocialNetwork struct {
	players []int
	off     []int32
	nbr     []int32
	cnt     []int32
}

// BuildSocialNetwork mines the implicit network from matches.
func BuildSocialNetwork(matches []Match) *SocialNetwork {
	// Slots are the player positions of the matches with at least two
	// players, numbered in match order; slots matchStart[m]..matchStart[m+1]
	// belong to the m-th such match.
	slots := 0
	for _, m := range matches {
		if len(m.Players) >= 2 {
			slots += len(m.Players)
		}
	}
	slotID := make([]int, 0, slots)
	matchOf := make([]int32, 0, slots)
	matchStart := []int32{0}
	for _, m := range matches {
		if len(m.Players) < 2 {
			continue
		}
		for _, id := range m.Players {
			slotID = append(slotID, id)
			matchOf = append(matchOf, int32(len(matchStart)-1))
		}
		matchStart = append(matchStart, int32(len(slotID)))
	}
	players, rowOf := numberRows(slotID)
	n := len(players)
	// Player→match index: byRow[slotOff[r]:slotOff[r+1]] are the slots of
	// row r in match order.
	slotOff := make([]int32, n+1)
	for _, r := range rowOf {
		slotOff[r+1]++
	}
	for r := 0; r < n; r++ {
		slotOff[r+1] += slotOff[r]
	}
	byRow := make([]int32, slots)
	fill := slices.Clone(slotOff[:n])
	for s, r := range rowOf {
		byRow[fill[r]] = int32(s)
		fill[r]++
	}

	sn := &SocialNetwork{players: players, off: make([]int32, n+1)}
	count := make([]int32, n)
	var touched []int32
	for r := 0; r < n; r++ {
		touched = touched[:0]
		for _, s := range byRow[slotOff[r]:slotOff[r+1]] {
			m := matchOf[s]
			for o := matchStart[m]; o < matchStart[m+1]; o++ {
				if o == s {
					continue
				}
				u := rowOf[o]
				if count[u] == 0 {
					touched = append(touched, u)
				}
				count[u]++
			}
		}
		slices.Sort(touched)
		for _, u := range touched {
			sn.nbr = append(sn.nbr, u)
			sn.cnt = append(sn.cnt, count[u])
			count[u] = 0
		}
		sn.off[r+1] = int32(len(sn.nbr))
	}
	return sn
}

// numberRows returns the distinct IDs in ids in ascending order and the
// row, the position in that order, of each entry of ids. When every ID lies
// in [0, 4·len(ids)), as MatchModel's player IDs do, one dense ID→row array
// numbers them; other IDs are sorted and each is binary-searched.
func numberRows(ids []int) (players []int, rowOf []int32) {
	rowOf = make([]int32, len(ids))
	if len(ids) == 0 {
		return nil, rowOf
	}
	if hi := slices.Max(ids); slices.Min(ids) >= 0 && hi < 4*len(ids) {
		// row[id] is 1 for a seen ID until it holds the ID's row.
		row := make([]int32, hi+1)
		n := 0
		for _, id := range ids {
			if row[id] == 0 {
				row[id] = 1
				n++
			}
		}
		players = make([]int, 0, n)
		for id, seen := range row {
			if seen != 0 {
				row[id] = int32(len(players))
				players = append(players, id)
			}
		}
		for s, id := range ids {
			rowOf[s] = row[id]
		}
		return players, rowOf
	}
	players = slices.Clone(ids)
	slices.Sort(players)
	players = slices.Compact(players)
	for s, id := range ids {
		r, _ := slices.BinarySearch(players, id)
		rowOf[s] = int32(r)
	}
	return players, rowOf
}

// row returns the neighbour rows of row r.
func (sn *SocialNetwork) row(r int32) []int32 {
	return sn.nbr[sn.off[r]:sn.off[r+1]]
}

// Nodes returns the number of players in the network.
func (sn *SocialNetwork) Nodes() int { return len(sn.players) }

// Edges returns the number of undirected edges.
func (sn *SocialNetwork) Edges() int { return len(sn.nbr) / 2 }

// ClusteringCoefficient returns the mean local clustering coefficient, the
// signature of community structure in co-play graphs. The coefficients are
// summed in ascending player order.
func (sn *SocialNetwork) ClusteringCoefficient() float64 {
	n := len(sn.players)
	inNb := make([]bool, n)
	coeffs := make([]float64, 0, n)
	for v := int32(0); int(v) < n; v++ {
		nb := sn.row(v)
		if len(nb) < 2 {
			continue
		}
		for _, u := range nb {
			inNb[u] = true
		}
		// Each linked neighbour pair {a, b}, a < b, is counted once, from a.
		links := 0
		for _, a := range nb {
			for _, b := range sn.row(a) {
				if b > a && inNb[b] {
					links++
				}
			}
		}
		for _, u := range nb {
			inNb[u] = false
		}
		possible := len(nb) * (len(nb) - 1) / 2
		coeffs = append(coeffs, float64(links)/float64(possible))
	}
	return stats.Mean(coeffs)
}

// RandomBaselineClustering estimates the clustering coefficient of an
// Erdős–Rényi graph with the same node and edge counts: p = 2E / (N(N-1)).
func (sn *SocialNetwork) RandomBaselineClustering() float64 {
	n := float64(sn.Nodes())
	if n < 2 {
		return 0
	}
	return 2 * float64(sn.Edges()) / (n * (n - 1))
}

// ChatEvent is one chat line with ground-truth and detector outcomes, for
// the toxicity-detection study (Märtens et al., NETGAMES'15).
type ChatEvent struct {
	Match   int
	Player  int
	Toxic   bool // ground truth
	Flagged bool // detector output
}

// ToxicityModel generates chat with ground-truth toxicity: losing players
// are substantially more likely to produce toxic messages, which the study
// exploited for detection.
type ToxicityModel struct {
	// BaseRate is the toxic probability for winners.
	BaseRate float64
	// LosingMultiplier scales the toxic probability for the losing team.
	LosingMultiplier float64
	// LinesPerPlayer is the mean chat lines each player emits per match.
	LinesPerPlayer float64
	Seed           int64
}

// DefaultToxicityModel matches the study's qualitative finding.
func DefaultToxicityModel() ToxicityModel {
	return ToxicityModel{BaseRate: 0.02, LosingMultiplier: 4, LinesPerPlayer: 3, Seed: 1}
}

// Generate produces chat events for the matches.
func (tm ToxicityModel) Generate(matches []Match) []ChatEvent {
	r := rand.New(rand.NewSource(tm.Seed))
	players := 0
	for _, m := range matches {
		players += len(m.Players)
	}
	// A player emits int(LinesPerPlayer·(0.5+u)) lines for some u < 1, at
	// most int(1.5·LinesPerPlayer).
	events := make([]ChatEvent, 0, players*max(0, int(1.5*tm.LinesPerPlayer)))
	for _, m := range matches {
		half := len(m.Players) / 2
		for idx, p := range m.Players {
			losing := (idx < half) == (m.Winner == 1)
			rate := tm.BaseRate
			if losing {
				rate *= tm.LosingMultiplier
			}
			lines := int(tm.LinesPerPlayer * (0.5 + r.Float64()))
			for l := 0; l < lines; l++ {
				events = append(events, ChatEvent{
					Match:  m.ID,
					Player: p,
					Toxic:  r.Float64() < rate,
				})
			}
		}
	}
	return events
}

// ToxicityDetector flags toxic chat using a noisy classifier with the given
// true-positive and false-positive rates, mirroring the reported detector
// quality regime.
type ToxicityDetector struct {
	TruePositiveRate  float64
	FalsePositiveRate float64
	Seed              int64
}

// DetectionReport scores a detector run.
type DetectionReport struct {
	Precision float64
	Recall    float64
	Flagged   int
	Toxic     int
	Total     int
}

// Apply runs the detector over events (mutating Flagged) and scores it.
func (d ToxicityDetector) Apply(events []ChatEvent) DetectionReport {
	r := rand.New(rand.NewSource(d.Seed))
	var tp, fp, fn int
	for i := range events {
		if events[i].Toxic {
			events[i].Flagged = r.Float64() < d.TruePositiveRate
			if events[i].Flagged {
				tp++
			} else {
				fn++
			}
		} else {
			events[i].Flagged = r.Float64() < d.FalsePositiveRate
			if events[i].Flagged {
				fp++
			}
		}
	}
	rep := DetectionReport{Flagged: tp + fp, Toxic: tp + fn, Total: len(events)}
	if tp+fp > 0 {
		rep.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		rep.Recall = float64(tp) / float64(tp+fn)
	}
	return rep
}
