package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a tail estimate resting on fewer samples is
// mostly the luck of one or two outliers.
const minTail = 10

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks (the R-7 / numpy "linear" rule), or 0 for no
// samples. samples need not be sorted; they are not modified.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailQuantile returns the q-quantile only when at least minTail
// samples lie strictly beyond its rank; ok is false otherwise.
func tailQuantile(samples []float64, q float64) (v float64, ok bool) {
	if beyond(len(samples), q) < minTail {
		return 0, false
	}
	return quantile(samples, q), true
}

// beyond is the number of samples out of n ranked strictly above the
// q-quantile's interpolation position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// sum adds samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}
