package sim

import "sort"

// Sample is one time-stamped observation of a named series.
type Sample struct {
	At    Time
	Value float64
}

// Recorder accumulates time-stamped observations grouped into named series.
// It is the standard way simulators expose measurements to experiment
// harnesses: simulators record, harnesses query.
//
// The zero value is ready to use.
type Recorder struct {
	series map[string][]Sample
}

// Record appends an observation to the named series.
func (r *Recorder) Record(series string, at Time, value float64) {
	if r.series == nil {
		r.series = make(map[string][]Sample)
	}
	r.series[series] = append(r.series[series], Sample{At: at, Value: value})
}

// Series returns the observations of the named series in recording order.
// The returned slice is owned by the recorder; callers must not mutate it.
func (r *Recorder) Series(name string) []Sample {
	return r.series[name]
}

// Values returns just the values of the named series.
func (r *Recorder) Values(name string) []float64 {
	s := r.series[name]
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v.Value
	}
	return out
}

// Names returns the sorted list of series names.
func (r *Recorder) Names() []string {
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of observations in the named series.
func (r *Recorder) Len(name string) int { return len(r.series[name]) }
