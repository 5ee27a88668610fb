// Package stats provides the small statistics toolkit used by the spothost
// simulators and the experiment harness: streaming and weighted moments,
// weighted correlation, percentiles and fixed-bin histograms.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Welford accumulates count, mean and variance in one pass with good
// numerical behaviour. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// PopStd returns the population standard deviation (dividing by n).
func (w *Welford) PopStd() float64 {
	if w.n == 0 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// Min returns the smallest observation, or 0 with no samples.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no samples.
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w (parallel Welford merge).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	mn, mx := w.min, w.max
	if o.min < mn {
		mn = o.min
	}
	if o.max > mx {
		mx = o.max
	}
	*w = Welford{n: n, mean: mean, m2: m2, min: mn, max: mx}
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// values).
func Std(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Std()
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It copies and sorts the input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi); samples outside
// the range land in saturating under/overflow bins, so Count always equals
// the number of Add calls and no sample disappears silently.
type Histogram struct {
	Lo, Hi    float64
	Bins      []int
	Underflow int
	Overflow  int
	count     int
	sum       float64
}

// NewHistogram returns a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Add inserts one sample.
func (h *Histogram) Add(x float64) {
	h.count++
	h.sum += x
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if i == len(h.Bins) { // guard against float rounding at Hi
			i--
		}
		h.Bins[i]++
	}
}

// Count returns the total number of samples added, including those that
// fell outside [Lo, Hi).
func (h *Histogram) Count() int { return h.count }

// Sum returns the sum of all samples added, including out-of-range ones.
func (h *Histogram) Sum() float64 { return h.sum }

// BucketUpperBound returns the exclusive upper edge of bin i.
func (h *Histogram) BucketUpperBound(i int) float64 {
	return h.Lo + (h.Hi-h.Lo)*float64(i+1)/float64(len(h.Bins))
}

// Cumulative returns the number of samples at or below bin i's upper edge:
// the underflow bin plus bins 0..i. This is the Prometheus cumulative-
// bucket convention; the implicit +Inf bucket is Count().
func (h *Histogram) Cumulative(i int) int {
	c := h.Underflow
	for j := 0; j <= i && j < len(h.Bins); j++ {
		c += h.Bins[j]
	}
	return c
}

// Merge adds another histogram's samples into h. The two histograms must
// share the same shape (Lo, Hi, bin count); mismatched shapes panic since
// merging them bin-by-bin would silently misbin every sample.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Bins) != len(o.Bins) {
		panic("stats: Merge of mismatched histogram shapes")
	}
	for i, n := range o.Bins {
		h.Bins[i] += n
	}
	h.Underflow += o.Underflow
	h.Overflow += o.Overflow
	h.count += o.count
	h.sum += o.sum
}
