// Package stat provides the descriptive-statistics and regression substrate
// used by the Monte Carlo experiments, the detection analysis, and the
// alternate-test baseline. Everything is stdlib-only and deterministic.
package stat

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that need at least one sample.
var ErrEmpty = errors.New("stat: empty sample")

// Mean returns the arithmetic mean of xs. It panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance. For a single sample
// it returns 0.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		panic(ErrEmpty)
	}
	if n == 1 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs. It panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type 7, the numpy default).
// xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 || q > 1 {
		panic("stat: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Correlation returns the Pearson correlation coefficient of paired samples.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stat: Correlation length mismatch")
	}
	if len(xs) < 2 {
		panic(ErrEmpty)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	den := math.Sqrt(sxx * syy)
	if den == 0 {
		return 0
	}
	return sxy / den
}

// Summary bundles the usual descriptive statistics of one sample.
type Summary struct {
	N           int
	Mean, Std   float64
	Min, Max    float64
	Median      float64
	P05, P95    float64
	P2_5, P97_5 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	lo, hi := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    StdDev(xs),
		Min:    lo,
		Max:    hi,
		Median: Median(xs),
		P05:    Quantile(xs, 0.05),
		P95:    Quantile(xs, 0.95),
		P2_5:   Quantile(xs, 0.025),
		P97_5:  Quantile(xs, 0.975),
	}
}

// KolmogorovSmirnov returns the two-sample KS statistic D: the maximum
// distance between the empirical CDFs of a and b. Used by the noise
// experiments to show that null and deviated NDF distributions are
// statistically distinct.
func KolmogorovSmirnov(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic(ErrEmpty)
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j := 0, 0
	d := 0.0
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// KSSignificant reports whether a two-sample KS statistic d exceeds the
// asymptotic critical value at significance alpha (supported: 0.05 and
// 0.01) for sample sizes n and m.
func KSSignificant(d float64, n, m int, alpha float64) bool {
	if n <= 0 || m <= 0 {
		panic(ErrEmpty)
	}
	var c float64
	switch {
	case alpha <= 0.01:
		c = 1.628
	default:
		c = 1.358
	}
	crit := c * math.Sqrt(float64(n+m)/(float64(n)*float64(m)))
	return d > crit
}

// Running accumulates streaming mean/variance via Welford's algorithm,
// avoiding storage of the full sample. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Push adds one observation.
func (r *Running) Push(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Merge folds another Running accumulator into r via the standard
// parallel-variance combination (Chan et al.), so per-chunk moment
// accumulators merged in stable index order give the same mean/variance
// at any worker count — the streaming campaigns' merge discipline. The
// combination is floating-point, so unlike the integer-count histograms
// it is only reproducible at a fixed chunk grouping (the same contract
// every float fold under campaign.Reduce already carries).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	na, nb := float64(r.n), float64(o.n)
	n := na + nb
	delta := o.mean - r.mean
	r.mean += delta * nb / n
	r.m2 += o.m2 + delta*delta*na*nb/n
	r.n += o.n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// N returns the number of observations pushed so far.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased running variance (0 for n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the unbiased running standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 before any observation).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 before any observation).
func (r *Running) Max() float64 { return r.max }
