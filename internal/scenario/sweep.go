package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Param is one axis assignment of a concrete scenario, rendered as text.
type Param struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Scenario is one concrete cell of a sweep: a fully resolved parameter set
// for one domain. Params records the axis assignments that produced it
// (empty for an unswept spec).
type Scenario struct {
	spec   *Spec
	domain Domain
	// traces, set on Run's copy of the cells and on a dist worker's, shares
	// unscaled traces between cells with the same workload (see buildTrace);
	// traceJob is the job part of the worker's trace keys.
	traces   *traceMemo
	traceJob string
	// Workload/Cluster/Policy parameterize the sched and autoscale domains.
	Workload WorkloadSpec
	Cluster  ClusterSpec
	Policy   string
	// Autoscale parameterizes the autoscale domain.
	Autoscale AutoscaleSpec
	// MMOG parameterizes the mmog domain.
	MMOG   MMOGSpec
	Params []Param
}

// ID returns the stable scenario identifier used for seed derivation and in
// reports: the spec name plus the ordered axis assignments.
func (sc *Scenario) ID() string {
	if len(sc.Params) == 0 {
		return sc.spec.Name
	}
	parts := make([]string, len(sc.Params))
	for i, p := range sc.Params {
		parts[i] = p.Axis + "=" + p.Value
	}
	return sc.spec.Name + "/" + strings.Join(parts, ",")
}

// WorkloadID identifies the cell's generated workload: the spec name plus
// only the generation-relevant (Generative) axis assignments. Axes outside
// that set (policy, load, shape, technique) are excluded from the workload
// seed, so cells differing only in those axes face the identical generated
// input per replica — paired comparisons (common random numbers), not
// cross-workload sampling noise.
func (sc *Scenario) WorkloadID() string {
	axes := sc.domain.Axes()
	var parts []string
	for _, p := range sc.Params {
		if axes[p.Axis].Generative {
			parts = append(parts, p.Axis+"="+p.Value)
		}
	}
	return sc.spec.Name + "/workload/" + strings.Join(parts, ",")
}

func checkName(v any, resolve func(string) error) error {
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("got %v (%T), want a name string", v, v)
	}
	return resolve(s)
}

func checkFloat(v any, min float64) error {
	f, ok := v.(float64)
	if !ok {
		return fmt.Errorf("got %v (%T), want a number", v, v)
	}
	if f < min {
		return fmt.Errorf("got %g, must be >= %g", f, min)
	}
	return nil
}

func checkInt(v any, min int) error {
	f, ok := v.(float64)
	if !ok {
		return fmt.Errorf("got %v (%T), want an integer", v, v)
	}
	if f != float64(int(f)) || int(f) < min {
		return fmt.Errorf("got %v, must be an integer >= %d", v, min)
	}
	return nil
}

// checkCappedInt checks a swept value of a capped field (see fieldCaps): a
// positive integer no larger than the field's cap.
func checkCappedInt(v any, field string) error {
	if err := checkInt(v, 1); err != nil {
		return err
	}
	if err := checkCap(field, v.(float64)); err != nil {
		return fmt.Errorf("%s %w", field, err)
	}
	return nil
}

// formatValue renders a swept value for IDs and reports; float formatting is
// the shortest exact form, so IDs are stable.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// MaxCells bounds a single expansion; larger sweeps should be split.
const MaxCells = 4096

// sweepAxes returns the spec's swept axis names in expansion order
// (lexicographic, since JSON objects carry no order).
func (s *Spec) sweepAxes() []string {
	return slices.Sorted(maps.Keys(s.Sweep))
}

// sweepSize returns the number of cells the spec's sweep would expand to —
// the product of the axis cardinalities, computed from the cardinalities
// alone and saturating at MaxCells+1 — so validation bounds the sweep
// before any cell is materialized (a hostile spec must never get its
// cross-product allocated first) and without integer overflow however many
// axes multiply together.
func sweepSize(s *Spec) int {
	cells := 1
	for _, values := range s.Sweep {
		if len(values) == 0 {
			continue
		}
		if cells > (MaxCells+1)/len(values) {
			return MaxCells + 1
		}
		cells *= len(values)
	}
	return cells
}

// validateSweep checks every swept axis and value against the domain's axis
// catalog.
func (s *Spec) validateSweep(d Domain, bad func(string, ...any)) {
	axes := d.Axes()
	for _, name := range s.sweepAxes() {
		def, ok := axes[name]
		if !ok {
			bad("sweep.%s: unknown axis (domain %s sweeps: %s)",
				name, d.Name(), strings.Join(AxisNames(d), ", "))
			continue
		}
		values := s.Sweep[name]
		if len(values) == 0 {
			bad("sweep.%s: empty value list", name)
			continue
		}
		seen := map[string]bool{}
		for i, v := range values {
			if err := def.Check(v); err != nil {
				bad("sweep.%s[%d]: %v", name, i, err)
				continue
			}
			// Compare canonical forms so alias spellings ("sci" vs
			// "scientific") count as duplicates too.
			r := formatValue(v)
			if def.Canon != nil {
				r = def.Canon(v)
			}
			if seen[r] {
				bad("sweep.%s[%d]: duplicate value %s", name, i, formatValue(v))
			} else {
				seen[r] = true
			}
		}
	}
	// Bound the expansion from the cardinalities alone (saturating, so a
	// degenerate many-axis sweep cannot overflow the product past the
	// check): the cross-product is never materialized for an oversized
	// sweep.
	if cells := sweepSize(s); cells > MaxCells {
		size := strconv.Itoa(cells)
		if cells == MaxCells+1 {
			size = "more than " + strconv.Itoa(MaxCells)
		}
		bad("sweep: expands to %s scenarios, max %d; split the sweep", size, MaxCells)
	}
}

// Expand validates the spec and returns the cross-product of its sweep axes
// as concrete scenarios, in deterministic order: axes expand in lexicographic
// name order, values in declared order. A spec without a sweep expands to the
// single base scenario.
func Expand(s *Spec) ([]Scenario, error) {
	return s.validate()
}

// expand returns the cross-product of a valid spec's sweep axes.
func (s *Spec) expand(d Domain) []Scenario {
	axes := d.Axes()
	base := Scenario{spec: s, domain: d, Workload: s.Workload, Cluster: s.Cluster, Policy: s.Policy}
	if s.Autoscale != nil {
		base.Autoscale = *s.Autoscale
	}
	if s.MMOG != nil {
		base.MMOG = *s.MMOG
	}
	cells := []Scenario{base}
	for _, name := range s.sweepAxes() {
		def := axes[name]
		next := make([]Scenario, 0, len(cells)*len(s.Sweep[name]))
		for _, cell := range cells {
			for _, v := range s.Sweep[name] {
				nc := cell
				nc.Params = append(append([]Param(nil), cell.Params...), Param{Axis: name})
				rendered := def.Apply(&nc, v)
				nc.Params[len(nc.Params)-1].Value = rendered
				next = append(next, nc)
			}
		}
		cells = next
	}
	return cells
}

// Single validates the spec and returns its base scenario; it rejects specs
// with sweep axes, which need Expand.
func Single(s *Spec) (*Scenario, error) {
	if len(s.Sweep) > 0 {
		return nil, fmt.Errorf("scenario: spec %q has sweep axes (%s); use 'scenario sweep'",
			s.Name, strings.Join(s.sweepAxes(), ", "))
	}
	cells, err := Expand(s)
	if err != nil {
		return nil, err
	}
	return &cells[0], nil
}
