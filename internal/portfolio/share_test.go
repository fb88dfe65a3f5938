package portfolio

import (
	"math"
	"strings"
	"testing"

	"atlarge/internal/sched"
)

// pinnedTable9Runs holds, per default Table 9 row, the policy chosen in each
// window, the modeled selection cost, and the bits of the portfolio's mean
// slowdown and response, as recorded when every window simulation still ran
// on its own.
var pinnedTable9Runs = []struct {
	study        string
	choices      string
	totalSimRuns int
	meanSlowdown uint64
	meanResponse uint64
}{
	{"Deng'13 (JSSPP)", "FCFS,FCFS,FCFS,FCFS", 28, 0x3ff0000000000000, 0x406decdff55edbdd},
	{"Deng'13 (SC)", "LJF,FairShare,LJF,FairShare", 28, 0x3ff04d23cba59895, 0x4091254839b15c1a},
	{"Shen'13 (Euro-Par)", "FCFS,SJF,FairShare,FairShare", 28, 0x3ff1c84e10307671, 0x40835d20329a7abb},
	{"Shai'13 (JSSPP)", "FairShare,EASY-BF,FairShare,FairShare", 28, 0x4013cf5e93c10ca6, 0x40b93a7dd1f13e08},
	{"van Beek'15 (Computer)", "GreedyBF,FCFS,GreedyBF,GreedyBF", 28, 0x3ff0000000000000, 0x409e91805ae73af1},
	{"Ma'17 (ICAC)", "FCFS,SJF,FCFS,FairShare", 28, 0x3ffc49cda9d62dfb, 0x409105ffb9a955d6},
	{"Voinea'18 (BigData)", "FairShare,FairShare,GreedyBF,FairShare", 28, 0x4006e77d535fd9a6, 0x40a7e3fe5b9a95ae},
}

// TestTable9SharedWindowRuns runs the default Table 9 through RunTable9's
// simulation pool, where the portfolio run and the static baselines share
// window simulations and each pool worker reuses one simulator. Choices,
// modeled cost and results must match the unshared recording; each shared
// realized run must equal a fresh simulation of its window; and the rows
// must take 308 simulations in all: one per (policy, window), plus one per
// policy on estimates for each window whose estimates are inexact.
func TestTable9SharedWindowRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default Table 9")
	}
	specs := table9Specs()
	if len(pinnedTable9Runs) != len(specs) {
		t.Fatalf("%d pinned rows, want %d", len(pinnedTable9Runs), len(specs))
	}
	type seen struct {
		res  *Result
		runs *windowRuns
	}
	// The memos are counted after the pool, so runs the static baselines
	// might add are counted too.
	got := make([]seen, len(specs))
	pool := newTable9Pool(DefaultTable9Config(), func(i int, res *Result, runs *windowRuns) {
		got[i] = seen{res: res, runs: runs}
	})
	if _, err := pool.run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, spec := range specs {
		pin, g := pinnedTable9Runs[i], got[i]
		if g.res == nil {
			t.Fatalf("%s: row not computed", spec.study)
		}
		s := g.runs.s
		var names []string
		for _, c := range g.res.Choices {
			names = append(names, c.Policy)
		}
		if got := strings.Join(names, ","); spec.study != pin.study || got != pin.choices {
			t.Errorf("%s: choices %s, want %s (%s)", spec.study, got, pin.choices, pin.study)
		}
		if g.res.TotalSimRuns != pin.totalSimRuns {
			t.Errorf("%s: TotalSimRuns = %d, want %d", spec.study, g.res.TotalSimRuns, pin.totalSimRuns)
		}
		if sd, resp := math.Float64bits(g.res.MeanSlowdown), math.Float64bits(g.res.MeanResponse); sd != pin.meanSlowdown || resp != pin.meanResponse {
			t.Errorf("%s: mean slowdown/response bits %#x/%#x, want %#x/%#x", spec.study, sd, resp, pin.meanSlowdown, pin.meanResponse)
		}
		want := 0
		for w := range g.runs.windows {
			want += len(s.Policies)
			if !g.runs.exact[w] {
				want += len(s.Policies)
			}
		}
		if len(g.runs.runs) != want {
			t.Errorf("%s: %d window simulations, want %d", spec.study, len(g.runs.runs), want)
		}
		total += len(g.runs.runs)

		for w, c := range g.res.Choices {
			p := policyIndex(t, s.Policies, c.Policy)
			shared := g.runs.get(p, w, false).res
			fresh, err := sched.NewSimulator(s.EnvFactory(), g.runs.windows[w], s.Policies[p], s.Seed+int64(w)).Run()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(shared.MeanSlowdown) != math.Float64bits(fresh.MeanSlowdown) ||
				math.Float64bits(shared.MeanResponse) != math.Float64bits(fresh.MeanResponse) {
				t.Errorf("%s window %d: shared %s run %+v, fresh %+v", spec.study, w, c.Policy, *shared, *fresh)
			}
		}
	}
	if total != 308 {
		t.Errorf("%d window simulations, want 308", total)
	}
}

func policyIndex(t *testing.T, policies []sched.Policy, name string) int {
	t.Helper()
	for i, p := range policies {
		if p.Name() == name {
			return i
		}
	}
	t.Fatalf("policy %s not in the portfolio", name)
	return -1
}
