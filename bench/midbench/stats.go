package main

import (
	"fmt"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here are the ones a reader recomputes from the raw
// values. Fewer than two values give a zero spread around the median.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		m := median(xs)
		return m, m
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailPercentile applies the reporting rule for timings: the highest
// whole percentile that still has at least ten samples beyond it, taken
// by nearest rank. It reports ok=false when that percentile would not
// lie above the median (n <= 20), where a tail figure says nothing the
// median does not.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	p = 100 * (n - 10) / n
	if p <= 50 {
		return 0, 0, false
	}
	rank := (p*n + 99) / 100 // ceil(p·n/100)
	return p, sorted(xs)[rank-1], true
}

// summary renders one timing line: median, tail percentile and count.
func summary(name, unit string, xs []float64) string {
	line := fmt.Sprintf("%-14s median %.6g %s", name, median(xs), unit)
	if p, v, ok := tailPercentile(xs); ok {
		line += fmt.Sprintf("  p%d %.6g %s", p, v, unit)
	}
	return line + fmt.Sprintf("  n=%d", len(xs))
}
