package atlarge

// Results API v2: the typed experiment result document.
//
// A Report is structured data — named Metric samples, Tables of label and
// value cells, optional Series — and every rendering (text, JSON, CSV) is
// derived from that structure. Replica aggregation (see aggregate.go)
// operates in value space on the same document, so labels are never
// re-parsed and digits embedded in labels ("P2", "fig8") are never mistaken
// for data.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"atlarge/internal/stats"
)

// Metric is one named scalar sample of a report.
type Metric struct {
	// Name is the stable metric key ("mean_slowdown", "distinct_winners").
	Name string `json:"name"`
	// Value is the sample. In an aggregated report it is the replica mean.
	Value float64 `json:"value"`
	// Unit is the value's unit ("s", "%", "$/h"); empty for counts/ratios.
	Unit string `json:"unit,omitempty"`
	// HigherBetter is the comparison direction: true when larger values win;
	// false (the default) means lower is better.
	HigherBetter bool `json:"higher_better,omitempty"`
	// CI95 is the half-width of the 95% confidence interval across replicas;
	// zero in a single-run report. Filled by AggregateReports.
	CI95 float64 `json:"ci95,omitempty"`
}

// MetricDef is one entry of a metric catalog: a name with its comparison
// direction. The scenario engine's domain catalogs use the same type, so
// experiment and scenario metrics share one vocabulary of directions.
type MetricDef struct {
	// Name is the metric key in reports.
	Name string `json:"name"`
	// HigherBetter is the comparison direction for highlighting; false
	// (the default) means lower is better.
	HigherBetter bool `json:"higher_better,omitempty"`
	// Unit is the value's unit, when the catalog declares one.
	Unit string `json:"unit,omitempty"`
}

// Sample is the value-space aggregate of one measurement across replicas:
// the per-replica values in replica order plus their mean and 95% CI
// half-width (normal approximation).
type Sample struct {
	Mean   float64   `json:"mean"`
	CI95   float64   `json:"ci95"`
	Values []float64 `json:"values"`
}

// NewSample aggregates per-replica values.
func NewSample(values []float64) Sample {
	return Sample{Mean: stats.Mean(values), CI95: stats.HalfWidth95(values), Values: values}
}

// Cell is one table cell: a label (Value nil) or a typed numeric value.
type Cell struct {
	// Label is the cell text for label cells; empty for value cells.
	Label string `json:"label,omitempty"`
	// Value is set for numeric cells (a pointer, so 0 survives omitempty and
	// label cells carry no value at all).
	Value *float64 `json:"value,omitempty"`
	// Format is the printf verb rendering Value in text output ("%.2f");
	// empty means the shortest exact form.
	Format string `json:"format,omitempty"`
	// Unit suffixes the rendered value ("s", "%").
	Unit string `json:"unit,omitempty"`
	// CI95 is the 95% CI half-width of Value across replicas; set only on
	// aggregated cells whose value varied.
	CI95 *float64 `json:"ci95,omitempty"`
}

// IsValue reports whether the cell carries a numeric value.
func (c Cell) IsValue() bool { return c.Value != nil }

// Label returns a label cell.
func Label(text string) Cell { return Cell{Label: text} }

// Labelf returns a label cell with printf formatting.
func Labelf(format string, args ...any) Cell {
	return Cell{Label: fmt.Sprintf(format, args...)}
}

// Num returns a value cell rendered with the printf verb format (empty means
// the shortest exact form).
func Num(v float64, format string) Cell { return Cell{Value: &v, Format: format} }

// NumUnit returns a value cell with a unit suffix.
func NumUnit(v float64, format, unit string) Cell {
	return Cell{Value: &v, Format: format, Unit: unit}
}

// Count returns a value cell holding an integer count.
func Count(n int) Cell { return Num(float64(n), "%.0f") }

// Table is one structured table of a report: optional column headers plus
// rows of cells.
type Table struct {
	// Name identifies the table within the report ("keywords", "policies").
	Name string `json:"name,omitempty"`
	// Columns are the header names, index-aligned with each row's cells.
	Columns []string `json:"columns,omitempty"`
	// Rows hold the cells, row-major.
	Rows [][]Cell `json:"rows"`
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Series is one ordered numeric series (a figure line).
type Series struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	// X holds the sample positions; empty means indexed 0..len(Y)-1.
	X []float64 `json:"x,omitempty"`
	Y []float64 `json:"y"`
	// YCI95 holds per-point 95% CI half-widths; set only on aggregated
	// series whose points varied across replicas.
	YCI95 []float64 `json:"y_ci95,omitempty"`
}

// Report is the typed outcome of one reproduced paper artifact.
//
// Rows of free-form text are gone (Results API v2); experiments emit named
// metrics, structured tables, and series, and the text rendering in Lines is
// derived from them.
type Report struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Metrics []Metric  `json:"metrics,omitempty"`
	Tables  []*Table  `json:"tables,omitempty"`
	Series  []*Series `json:"series,omitempty"`
	// Notes are free-form findings sentences. They are never aggregated:
	// replica-varying numbers belong in Metrics.
	Notes []string `json:"notes,omitempty"`
}

// NewReport returns an empty report document.
func NewReport(id, title string) *Report { return &Report{ID: id, Title: title} }

// AddMetric appends one metric sample.
func (r *Report) AddMetric(m Metric) { r.Metrics = append(r.Metrics, m) }

// Metric returns the first metric with the name.
func (r *Report) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// AddTable appends an empty table and returns it for row building.
func (r *Report) AddTable(name string, columns ...string) *Table {
	t := &Table{Name: name, Columns: columns}
	r.Tables = append(r.Tables, t)
	return t
}

// AddSeries appends one series.
func (r *Report) AddSeries(s *Series) { r.Series = append(r.Series, s) }

// AddNote appends one findings sentence.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// formatFloat renders a value in its shortest exact form.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderValue renders a numeric value under a cell/metric format verb.
func renderValue(v float64, format string) string {
	if format == "" {
		return formatFloat(v)
	}
	return fmt.Sprintf(format, v)
}

// renderCell renders one cell for text output, including the ±CI suffix of
// aggregated cells.
func renderCell(c Cell) string {
	if !c.IsValue() {
		return c.Label
	}
	s := renderValue(*c.Value, c.Format)
	if c.CI95 != nil && *c.CI95 != 0 {
		s += fmt.Sprintf("±%.2g", *c.CI95)
	}
	return s + c.Unit
}

// renderMetricValue renders a metric's value with its CI and unit.
func renderMetricValue(m Metric) string {
	s := fmt.Sprintf("%.6g", m.Value)
	if m.CI95 != 0 {
		s += fmt.Sprintf("±%.2g", m.CI95)
	}
	if m.Unit != "" {
		s += " " + m.Unit
	}
	return s
}

// Lines renders the document as human-readable text rows: the metric block,
// each table (aligned, with headers), each series, then the notes. The text
// is derived from the typed structure, never the other way around.
func (r *Report) Lines() []string {
	var lines []string
	if len(r.Metrics) > 0 {
		table := make([][]string, 0, len(r.Metrics))
		for _, m := range r.Metrics {
			dir := ""
			if m.HigherBetter {
				dir = "(higher is better)"
			}
			table = append(table, []string{m.Name, "=", renderMetricValue(m), dir})
		}
		lines = append(lines, AlignRows(table)...)
	}
	for _, t := range r.Tables {
		if len(lines) > 0 {
			lines = append(lines, "")
		}
		if t.Name != "" {
			lines = append(lines, "["+t.Name+"]")
		}
		table := make([][]string, 0, len(t.Rows)+1)
		if len(t.Columns) > 0 {
			table = append(table, t.Columns)
		}
		for _, row := range t.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = renderCell(c)
			}
			table = append(table, cells)
		}
		lines = append(lines, AlignRows(table)...)
	}
	for _, s := range r.Series {
		var b strings.Builder
		b.WriteString(s.Name + ":")
		for i, y := range s.Y {
			x := float64(i)
			if i < len(s.X) {
				x = s.X[i]
			}
			b.WriteString(" " + formatFloat(x) + ":" + formatFloat(y))
			if i < len(s.YCI95) && s.YCI95[i] != 0 {
				b.WriteString(fmt.Sprintf("±%.2g", s.YCI95[i]))
			}
		}
		lines = append(lines, b.String())
	}
	lines = append(lines, r.Notes...)
	return lines
}

// AlignRows renders rows of columns with space-padded alignment; widths
// count runes so "±" does not skew the padding. Empty trailing columns
// disappear. The scenario report tables align through the same helper.
func AlignRows(table [][]string) []string {
	var widths []int
	for _, row := range table {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	out := make([]string, 0, len(table))
	for _, row := range table {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
			}
		}
		out = append(out, strings.TrimRight(b.String(), " "))
	}
	return out
}

// WriteText writes the rendered lines, one per row, with the given indent
// (separator lines stay truly empty).
func (r *Report) WriteText(w io.Writer, indent string) error {
	for _, line := range r.Lines() {
		if line != "" {
			line = indent + line
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the document as indented JSON. Marshalling uses only
// slices (no maps), so the bytes are deterministic for a given document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits the document in long form, one record per metric, table
// cell, series point, and note:
//
//	section,name,row,col,label,value,unit,ci95
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(record ...string) {
		// csv.Writer latches its first error; checked once at the end.
		_ = cw.Write(record)
	}
	write("section", "name", "row", "col", "label", "value", "unit", "ci95")
	for _, m := range r.Metrics {
		write("metric", m.Name, "", "", "", formatFloat(m.Value), m.Unit, csvCI(m.CI95))
	}
	for _, t := range r.Tables {
		for ri, row := range t.Rows {
			for ci, c := range row {
				col := strconv.Itoa(ci)
				if ci < len(t.Columns) {
					col = t.Columns[ci]
				}
				if c.IsValue() {
					ci95 := ""
					if c.CI95 != nil {
						ci95 = csvCI(*c.CI95)
					}
					write("table", t.Name, strconv.Itoa(ri), col, "", formatFloat(*c.Value), c.Unit, ci95)
				} else {
					write("table", t.Name, strconv.Itoa(ri), col, c.Label, "", "", "")
				}
			}
		}
	}
	for _, s := range r.Series {
		for i, y := range s.Y {
			x := float64(i)
			if i < len(s.X) {
				x = s.X[i]
			}
			ci95 := ""
			if i < len(s.YCI95) {
				ci95 = csvCI(s.YCI95[i])
			}
			write("series", s.Name, formatFloat(x), "", "", formatFloat(y), s.Unit, ci95)
		}
	}
	for i, note := range r.Notes {
		write("note", "", strconv.Itoa(i), "", note, "", "", "")
	}
	cw.Flush()
	return cw.Error()
}

// csvCI renders a CI half-width for CSV, empty when zero.
func csvCI(v float64) string {
	if v == 0 {
		return ""
	}
	return formatFloat(v)
}
