package stats

// Violin is the full description of one violin in a violin plot, as used for
// Figure 3 of the paper: mean (star), median (white dot), IQR (thick bar),
// whiskers at 1.5×IQR clipped to the data range. Figure 3 reports these
// summaries; no report draws the violin body, so no density is estimated.
type Violin struct {
	Category  string
	N         int
	Mean      float64
	Median    float64
	Q1, Q3    float64
	WhiskerLo float64 // max(min(xs), Q1 - 1.5*IQR)
	WhiskerHi float64 // min(max(xs), Q3 + 1.5*IQR)
}

// NewViolin computes the violin summary of xs.
func NewViolin(category string, xs []float64) (Violin, error) {
	fn, err := Summarize(xs)
	if err != nil {
		return Violin{}, err
	}
	iqr := fn.Q3 - fn.Q1
	lo := fn.Q1 - 1.5*iqr
	hi := fn.Q3 + 1.5*iqr
	if lo < fn.Min {
		lo = fn.Min
	}
	if hi > fn.Max {
		hi = fn.Max
	}
	return Violin{
		Category:  category,
		N:         fn.N,
		Mean:      fn.Mean,
		Median:    fn.Median,
		Q1:        fn.Q1,
		Q3:        fn.Q3,
		WhiskerLo: lo,
		WhiskerHi: hi,
	}, nil
}
