package wave

import (
	"math"
	"sync"
)

// Grid evaluation of a Multitone: out[i] ≈ Eval(T·i/n) from a table of
// the n-th roots of unity instead of one math.Sin per tone and sample,
// with a proven bound on the difference. A caller that only needs to
// know which side of a threshold each sample falls on (the zone LUT's
// rows) can settle most samples from the approximation and re-evaluate
// exactly only those within the bound of a threshold.
//
// # Error bound
//
// Let u = 2⁻⁵³ (the binary64 unit roundoff), θ = 2π·h·i/n the ideal
// grid phase of a tone of harmonic h, and Y = |Offset| + Σ|A| over the
// tones. The arguments below assume math.Sin and math.Cos are within 4u
// of the true value for |arg| < 2²⁴ (the Cephes kernel Go uses documents
// a 2.1e-16 peak relative error: a 2× cushion). Eval(t) at
// t = fl(fl(T·i)/n) differs from the ideal Offset + Σ A·sin(θ + φ) by at
// most:
//
//   - argument: fl(2π), F·T = h(1+ρ) with |ρ| ≤ 9.01u (the integer-
//     harmonic check below), the two roundings of t and the two products
//     give |fl(2π·F·t) − θ| ≤ 14.03u·θ; adding φ rounds once more:
//     |Δarg| ≤ 15.04u·θ + u·|φ| ≤ 94.5u·h + u·|φ| since θ ≤ 2πh for
//     i ≤ n (a fused multiply-add only drops a rounding);
//   - math.Sin adds 4u, and fl(A·sin) another u·|A|: per tone
//     |A|·u·(5.01 + 94.5h + |φ|);
//   - summing Offset and the tones: one rounding of at most 1.0001u·Y
//     per tone.
//
// The approximation differs from the same ideal value by at most:
//
//   - table: S[k] = math.Sin(fl(fl(2π·k)/n)) for k ≤ n/4, mirrored
//     exactly, so |S[k] − sin(2πk/n)| ≤ τ = 4.72u (argument ≤ π/2 with
//     three roundings) + 4u ≤ 9u;
//   - coefficients a = fl(A·fl(cos φ)), b = fl(A·fl(sin φ)):
//     |a − A·cos φ|, |b − A·sin φ| ≤ 5.01u·|A|;
//   - per tone a·S[hi] + b·S[hi + n/4] with its three roundings:
//     10.03u·|A| + √2·τ·|A| + 2.01u·|A| ≤ 25u·|A| (|cos φ·sin θ| +
//     |sin φ·cos θ| ≤ 1 bounds the rounded magnitudes);
//   - summing: 1.0001u·Y per tone, as above.
//
// Together, for a Multitone of k tones:
//
//	|approx − Eval| ≤ B = u·(Σ |A|·(95h + |φ| + 31) + 2.01·k·Y)
//
// EvalGrid returns ε = gridSafety·B: a 1024× margin over the proven
// bound, which the property tests check directly (error ≤ ε/1000). On
// the paper's system ε ≈ 8e-12 V against a measured maximum error of
// 8.9e-16 V, and a zone LUT row is 1/256 V tall, so the margin costs a
// vanishing share of samples an exact re-evaluation.
const (
	// gridU is the binary64 unit roundoff u.
	gridU = 0x1p-53
	// gridSafety multiplies the proven bound into the returned ε.
	gridSafety = 1024
	// gridMaxPhase bounds |φ| of every tone: stimulus phases plus a
	// filter's arg H, each within (−π, π], sit well inside it.
	gridMaxPhase = 4 * math.Pi
	// gridMaxHarmonic bounds h so every Eval argument stays inside the
	// range the math.Sin accuracy assumption covers.
	gridMaxHarmonic = 1 << 20
	// gridHarmonicULPs is how far F·T may sit from its integer harmonic,
	// in units of u·h (it enters the bound above as ρ ≤ 9.01u).
	gridHarmonicULPs = 8
)

// EvalGrid fills out[i] with an approximation of
// Eval(T*float64(i)/float64(n)) — exactly the expression a uniform grid
// of n samples per span T builds — and returns eps with
// |out[i] − Eval(T·i/n)| ≤ eps for every i (see the error bound above).
//
// It returns ok = false, leaving out untouched, unless the grid is one
// the bound covers: n > 0 with 4 | n, len(out) ≤ n+1, T positive and
// finite, a finite offset and amplitudes, every tone's Freq·T within a
// few ulps of an integer harmonic 1 ≤ h ≤ 2²⁰, and every phase within
// ±4π. The caller then evaluates exactly.
//
// The root table is shared process-wide (see rootTable), so EvalGrid
// performs no allocations once the table for n exists.
func (m *Multitone) EvalGrid(T float64, n int, out []float64) (eps float64, ok bool) {
	if n <= 0 || n%4 != 0 || len(out) > n+1 || !(T > 0) || math.IsInf(T, 0) || math.IsNaN(m.Offset) || math.IsInf(m.Offset, 0) {
		return 0, false
	}
	y := math.Abs(m.Offset)
	b := 0.0
	for _, tn := range m.Tones {
		h, ok := gridHarmonic(tn, T)
		if !ok || math.IsNaN(tn.Amp) || math.IsInf(tn.Amp, 0) || !(math.Abs(tn.Phase) <= gridMaxPhase) {
			return 0, false
		}
		a := math.Abs(tn.Amp)
		y += a
		b += a * (95*float64(h) + math.Abs(tn.Phase) + 31)
	}
	b += 2.01 * float64(len(m.Tones)) * y

	S := rootTable(n)
	for i := range out {
		out[i] = m.Offset
	}
	q := n / 4
	for _, tn := range m.Tones {
		h, _ := gridHarmonic(tn, T)
		h %= n
		a, c := tn.Amp*math.Cos(tn.Phase), tn.Amp*math.Sin(tn.Phase)
		// A·sin(θ + φ) = A·cos φ·sin θ + A·sin φ·cos θ, with
		// cos θ = sin(θ + π/2) read a quarter table further on.
		ks, kc := 0, q
		for i := range out {
			out[i] += a*S[ks] + c*S[kc]
			if ks += h; ks >= n {
				ks -= n
			}
			if kc += h; kc >= n {
				kc -= n
			}
		}
	}
	return gridSafety * gridU * b, true
}

// gridHarmonic returns the integer harmonic h of a tone over the span T
// when Freq·T lies within gridHarmonicULPs·u·h of it.
func gridHarmonic(tn Tone, T float64) (int, bool) {
	ft := tn.Freq * T
	h := math.Round(ft)
	if !(h >= 1 && h <= gridMaxHarmonic) || math.Abs(ft-h) > gridHarmonicULPs*gridU*h {
		return 0, false
	}
	return int(h), true
}

// rootTableCap bounds how many root tables the process keeps. In
// production every table is the scan resolution's; tests that vary the
// resolution evict the oldest.
const rootTableCap = 4

// rootTables is the process-wide cache of immutable root tables, oldest
// first. Tables are shared read-only by every caller, so no System or
// worker holds a copy.
var rootTables struct {
	mu   sync.Mutex
	tabs [][]float64
}

// rootTable returns S[k] = sin(2πk/n) for k = 0 … n−1 (4 | n), building
// it on first use from the first quarter wave — n/4+1 math.Sin calls —
// by the exact symmetries sin(π − x) = sin x and sin(π + x) = −sin x.
func rootTable(n int) []float64 {
	rootTables.mu.Lock()
	defer rootTables.mu.Unlock()
	for _, s := range rootTables.tabs {
		if len(s) == n {
			return s
		}
	}
	s := make([]float64, n)
	q, h := n/4, n/2
	for k := 0; k <= q; k++ {
		v := math.Sin(2 * math.Pi * float64(k) / float64(n))
		s[k], s[h-k] = v, v
		if k > 0 {
			s[h+k], s[n-k] = -v, -v
		}
	}
	tabs := append(rootTables.tabs, s)
	if len(tabs) > rootTableCap {
		tabs = append(tabs[:0], tabs[1:]...)
	}
	rootTables.tabs = tabs
	return s
}
