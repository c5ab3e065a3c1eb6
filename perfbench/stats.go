package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q of the samples at or below it). xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// supports reports whether n samples leave at least ten beyond the
// q-quantile, the minimum this benchmark accepts for a reported percentile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
