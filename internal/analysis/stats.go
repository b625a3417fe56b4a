// Package analysis implements the data analytics of the paper: the scaled
// variability metric V(t) of §5 (equation 1), distribution summaries, CDFs,
// time-series resampling, and utilization shares (the Figure 5/6 style
// breakdowns).
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
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

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary is a five-number-plus-moments distribution summary, the data
// behind the paper's box plots.
type Summary struct {
	N                   int
	Min, P25, Median    float64
	P75, Max, Mean, Std float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Min:    Percentile(xs, 0),
		P25:    Percentile(xs, 25),
		Median: Percentile(xs, 50),
		P75:    Percentile(xs, 75),
		Max:    Percentile(xs, 100),
		Mean:   Mean(xs),
		Std:    Std(xs),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f±%.2f [%.2f %.2f %.2f %.2f %.2f]",
		s.N, s.Mean, s.Std, s.Min, s.P25, s.Median, s.P75, s.Max)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs.
func NewCDF(xs []float64) CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// N returns the sample count.
func (c CDF) N() int { return len(c.sorted) }

// At returns P(X ≤ x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1).
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	return c.sorted[int(q*float64(len(c.sorted)-1))]
}

// Points returns up to n evenly spaced (x, P(X≤x)) pairs for plotting.
func (c CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(1, n-1)
		out[i] = [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))}
	}
	return out
}

// Resample aggregates xs into block means of the given factor, dropping any
// trailing partial block. It converts a slot-level series into one at a
// coarser time granularity (e.g. the 60 ms plots of Figure 13).
func Resample(xs []float64, factor int) []float64 {
	if factor <= 1 {
		return append([]float64(nil), xs...)
	}
	n := len(xs) / factor
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := j * factor; i < (j+1)*factor; i++ {
			s += xs[i]
		}
		out[j] = s / float64(factor)
	}
	return out
}

// Shares returns the fraction of samples equal to each distinct value, the
// computation behind the modulation-order (Fig. 5) and MIMO-layer (Fig. 6)
// utilization percentages.
func Shares[T comparable](xs []T) map[T]float64 {
	out := make(map[T]float64)
	if len(xs) == 0 {
		return out
	}
	for _, x := range xs {
		out[x]++
	}
	for k := range out {
		out[k] /= float64(len(xs))
	}
	return out
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length series — the cross-layer correlation tool behind the §6
// "cross-correlating 5G parameters with the application decision process"
// analysis. It returns 0 for degenerate inputs.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
