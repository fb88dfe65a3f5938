package atlarge

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomReport generates an arbitrary (but JSON-representable) document:
// the generator for the round-trip property test.
func randomReport(r *rand.Rand) *Report {
	word := func() string {
		words := []string{"P2", "fig8", "alpha", "beta λ", "x", "quoted \"q\"", "tab\tsep"}
		return words[r.Intn(len(words))]
	}
	value := func() float64 {
		// Mix of integers, small decimals, negatives, and extreme magnitudes.
		switch r.Intn(4) {
		case 0:
			return float64(r.Intn(1000) - 500)
		case 1:
			return r.NormFloat64()
		case 2:
			return r.Float64() * 1e12
		default:
			return -r.Float64() / 1e9
		}
	}
	rep := NewReport(word(), word())
	for i := r.Intn(4); i > 0; i-- {
		rep.AddMetric(Metric{
			Name:         word(),
			Value:        value(),
			Unit:         []string{"", "s", "%", "$/h"}[r.Intn(4)],
			HigherBetter: r.Intn(2) == 0,
			CI95:         float64(r.Intn(2)) * r.Float64(),
		})
	}
	for i := r.Intn(3); i > 0; i-- {
		var cols []string
		for c := r.Intn(4); c > 0; c-- {
			cols = append(cols, word())
		}
		tb := rep.AddTable(word(), cols...)
		for rows := r.Intn(4); rows > 0; rows-- {
			var row []Cell
			for c := r.Intn(5); c > 0; c-- {
				if r.Intn(2) == 0 {
					row = append(row, Label(word()))
				} else {
					cell := NumUnit(value(), []string{"", "%.2f", "%.0f"}[r.Intn(3)], []string{"", "s"}[r.Intn(2)])
					if r.Intn(3) == 0 {
						ci := r.Float64()
						cell.CI95 = &ci
					}
					row = append(row, cell)
				}
			}
			tb.AddRow(row...)
		}
	}
	for i := r.Intn(3); i > 0; i-- {
		s := &Series{Name: word(), Unit: []string{"", "jobs"}[r.Intn(2)]}
		n := r.Intn(5)
		withX := r.Intn(2) == 0
		for p := 0; p < n; p++ {
			if withX {
				s.X = append(s.X, float64(p*5))
			}
			s.Y = append(s.Y, value())
		}
		rep.AddSeries(s)
	}
	for i := r.Intn(3); i > 0; i-- {
		rep.AddNote("note %s %d", word(), r.Intn(100))
	}
	return rep
}

// TestReportJSONRoundTripProperty pins that any Report survives JSON
// marshal → unmarshal structurally intact, and that marshalling is
// deterministic (equal documents render equal bytes).
func TestReportJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		rep := randomReport(r)
		b1, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back Report
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("case %d: unmarshal: %v\n%s", i, err, b1)
		}
		if !reflect.DeepEqual(rep, &back) {
			t.Fatalf("case %d: round trip changed the document\nbefore: %+v\nafter:  %+v", i, rep, &back)
		}
		b2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("case %d: marshal not deterministic:\n%s\n%s", i, b1, b2)
		}
	}
}

func TestReportLinesDerivedFromStructure(t *testing.T) {
	rep := NewReport("demo", "demo")
	rep.AddMetric(Metric{Name: "mean_slowdown", Value: 2.5, CI95: 0.25})
	rep.AddMetric(Metric{Name: "throughput", Value: 100, Unit: "jobs/s", HigherBetter: true})
	tb := rep.AddTable("policies", "policy", "slowdown")
	tb.AddRow(Label("sjf"), Num(1.5, "%.2f"))
	rep.AddSeries(&Series{Name: "load", X: []float64{0, 10}, Y: []float64{1, 2}})
	rep.AddNote("sjf wins under high load")

	text := strings.Join(rep.Lines(), "\n")
	for _, want := range []string{
		"mean_slowdown", "2.5±0.25",
		"throughput", "100 jobs/s", "(higher is better)",
		"[policies]", "policy", "sjf", "1.50",
		"load: 0:1 10:2",
		"sjf wins under high load",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Lines missing %q:\n%s", want, text)
		}
	}
}

func TestReportCSV(t *testing.T) {
	rep := NewReport("demo", "demo")
	rep.AddMetric(Metric{Name: "m", Value: 1.5, Unit: "s", CI95: 0.5})
	tb := rep.AddTable("t", "who", "what")
	tb.AddRow(Label("a,b"), Num(2, "%.0f"))
	rep.AddSeries(&Series{Name: "s", Y: []float64{9}})
	rep.AddNote("done")
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"section,name,row,col,label,value,unit,ci95",
		"metric,m,,,,1.5,s,0.5",
		`table,t,0,who,"a,b",,,`,
		"table,t,0,what,,2,,",
		"series,s,0,,,9,,",
		"note,,0,,done,,,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestMetricLookup(t *testing.T) {
	rep := NewReport("x", "x")
	rep.AddMetric(Metric{Name: "a", Value: 1, HigherBetter: true, Unit: "s"})
	if _, ok := rep.Metric("missing"); ok {
		t.Error("phantom metric found")
	}
	m, ok := rep.Metric("a")
	if !ok || m.Value != 1 {
		t.Errorf("Metric(a) = %+v, %v", m, ok)
	}
}
