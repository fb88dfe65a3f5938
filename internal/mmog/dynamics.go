package mmog

import (
	"math"
	"math/rand"
	"slices"

	"atlarge/internal/sim"
	"atlarge/internal/stats"
)

// PopulationModel generates the player-population time series of an MMOG,
// reproducing the short- and long-term dynamics uncovered by the Runescape
// longitudinal study: strong diurnal cycles, a weekly rhythm, long-term
// growth or decay, and noise.
type PopulationModel struct {
	// Base is the mean concurrent player count.
	Base float64
	// DailyAmp and WeeklyAmp are relative amplitudes in [0,1).
	DailyAmp  float64
	WeeklyAmp float64
	// GrowthPerDay is the relative long-term trend per day (may be negative).
	GrowthPerDay float64
	// NoiseCV is the multiplicative noise coefficient of variation.
	NoiseCV float64
	Seed    int64
}

// DefaultPopulationModel resembles a mid-size MMORPG.
func DefaultPopulationModel() PopulationModel {
	return PopulationModel{
		Base:         50000,
		DailyAmp:     0.45,
		WeeklyAmp:    0.15,
		GrowthPerDay: 0.001,
		NoiseCV:      0.03,
		Seed:         1,
	}
}

// Series returns per-hour concurrent player counts for the given number of
// days. The series is produced by an hourly tick event on the shared
// simulation kernel (one virtual second per hour), so population dynamics
// compose with other kernel-driven models; the RNG is seeded from the model
// alone, keeping the series bit-identical to the historical loop.
func (m PopulationModel) Series(days int) []float64 {
	r := rand.New(rand.NewSource(m.Seed))
	out := make([]float64, 0, days*24)
	k := sim.NewKernel(m.Seed)
	tick := func(k *sim.Kernel) {
		h := len(out)
		day := float64(h) / 24
		daily := 1 + m.DailyAmp*math.Sin(2*math.Pi*(float64(h%24)-14)/24) // peak ~20:00
		weekly := 1 + m.WeeklyAmp*math.Sin(2*math.Pi*(day-5)/7)           // weekend peak
		trend := math.Pow(1+m.GrowthPerDay, day)
		noise := 1 + m.NoiseCV*r.NormFloat64()
		v := m.Base * daily * weekly * trend * noise
		if v < 0 {
			v = 0
		}
		out = append(out, v)
	}
	if days*24 > 0 {
		// The hourly ticks are batch-scheduled up front (integer times, so
		// bit-identical to the historical self-rescheduling chain) and the
		// queue is pre-sized to its exact lifetime size.
		k.Reserve(days * 24)
		k.At(0, "hour", tick)
		k.AfterEach(1, days*24-1, "hour", tick)
	}
	if err := k.Run(); err != nil {
		panic(err) // unreachable: the tick chain neither stops nor errors
	}
	return out
}

// DynamicsReport summarizes a population series the way the longitudinal
// studies reported it.
type DynamicsReport struct {
	MeanPlayers     float64
	PeakToTrough    float64 // daily peak/trough ratio
	WeeklyVariation float64 // weekend/weekday mean ratio
	TrendPerDay     float64 // fitted relative growth per day
}

// AnalyzeDynamics extracts the headline dynamics from an hourly series.
func AnalyzeDynamics(hourly []float64) DynamicsReport {
	rep := DynamicsReport{MeanPlayers: stats.Mean(hourly)}
	days := len(hourly) / 24
	if days == 0 {
		return rep
	}
	// Daily peak/trough averaged over days.
	var ratios []float64
	for d := 0; d < days; d++ {
		day := hourly[d*24 : (d+1)*24]
		lo := stats.Min(day)
		if lo > 0 {
			ratios = append(ratios, stats.Max(day)/lo)
		}
	}
	rep.PeakToTrough = stats.Mean(ratios)
	// Weekend vs weekday.
	var we, wd []float64
	for d := 0; d < days; d++ {
		mean := stats.Mean(hourly[d*24 : (d+1)*24])
		if d%7 == 5 || d%7 == 6 {
			we = append(we, mean)
		} else {
			wd = append(wd, mean)
		}
	}
	if len(we) > 0 && len(wd) > 0 && stats.Mean(wd) > 0 {
		rep.WeeklyVariation = stats.Mean(we) / stats.Mean(wd)
	}
	// Trend: regression of log daily mean on day index.
	var xs, ys []float64
	for d := 0; d < days; d++ {
		mean := stats.Mean(hourly[d*24 : (d+1)*24])
		if mean > 0 {
			xs = append(xs, float64(d))
			ys = append(ys, math.Log(mean))
		}
	}
	if fit, err := stats.LinearRegression(xs, ys); err == nil {
		rep.TrendPerDay = math.Exp(fit.Slope) - 1
	}
	return rep
}

// Match is one MOBA match: a short session with a fixed team size.
type Match struct {
	ID      int
	StartH  float64
	Players []int
	Winner  int // 0 or 1: which half of Players won
	// DurationMin is the match length in minutes.
	DurationMin float64
}

// MatchModel generates MOBA matches, reproducing the '12 match-based-game
// analysis: short sessions, fixed team sizes, skill-driven matchmaking
// pools, and duration concentrated around a mode.
type MatchModel struct {
	Players  int // population of distinct players
	TeamSize int
	Seed     int64
}

// Generate produces n matches. Player pairs that co-occur often come from
// adjacent skill buckets, which is what makes the implicit social network
// clustered.
func (m MatchModel) Generate(n int) []Match {
	r := rand.New(rand.NewSource(m.Seed))
	if m.TeamSize <= 0 {
		m.TeamSize = 5
	}
	if m.Players < m.TeamSize*2 {
		m.Players = m.TeamSize * 2
	}
	// Skill buckets: players are grouped; matches draw from one bucket.
	buckets := m.Players / (m.TeamSize * 4)
	if buckets < 1 {
		buckets = 1
	}
	matches := make([]Match, 0, n)
	for i := 0; i < n; i++ {
		b := r.Intn(buckets)
		lo := b * m.Players / buckets
		hi := (b + 1) * m.Players / buckets
		pool := hi - lo
		if pool < m.TeamSize*2 {
			lo = 0
			pool = m.Players
		}
		players := make([]int, 0, m.TeamSize*2)
		for len(players) < m.TeamSize*2 {
			if p := lo + r.Intn(pool); !slices.Contains(players, p) {
				players = append(players, p)
			}
		}
		matches = append(matches, Match{
			ID:          i + 1,
			StartH:      float64(i) * 0.2,
			Players:     players,
			Winner:      r.Intn(2),
			DurationMin: 25 + r.NormFloat64()*8,
		})
	}
	return matches
}
