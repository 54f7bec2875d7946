package monitor

import (
	"math/bits"
	"sync"
)

// The batched classifier: Bank.ClassifyBatch and Bank.ClassifyPoint
// answer zone codes from a precomputed grid — the certified zone LUT —
// that proves monitor bits cell by cell. Every bit a cell cannot prove
// is evaluated exactly with that monitor's Bit, so both APIs are
// bit-identical to the scalar Classify, point for point.
//
// # Certification argument
//
// A zone code is n independent monitor bits, and bit m is the sign of
// monitor m's balance function
// Balance(x, y) = Σ_left IDSat(V_i) − Σ_right IDSat(V_i), where every
// input voltage V_i is x, y, or a DC constant. IDSat is nondecreasing in
// V_GS (it is 0.5·β·v_eff² with v_eff a nonnegative, nondecreasing
// softplus), so whenever all the inputs a given axis drives sit in one
// branch — true for every Table I configuration — Balance is monotone in
// x and monotone in y. A function monotone in each variable separately
// attains its extrema over an axis-aligned cell at the cell's corners;
// therefore, if the four corner balances of monitor m share a strict
// sign on a cell, that sign — and hence bit m — holds over the entire
// closed cell. The proof is per monitor: each cell stores the bits its
// corners prove plus a mask naming them, and a point in the cell pays
// exact Bit evaluations only for the unproved monitors — usually the
// one or two whose boundary crosses the cell, not the whole bank.
//
// Two guards keep the proof airtight in floating point:
//
//   - corners must clear a margin (lutMarginA) far below any physical
//     monitor current but far above the ~1e-19 A discontinuity of the
//     softplus's numeric range switch, so the monotonicity argument
//     survives the implementation's branch boundaries;
//   - the grid spans [0,1)² with a power-of-two cell count, so the cell
//     index int(x·lutCells) is computed exactly (multiplication by a
//     power of two is exact in binary64) and a point can never be
//     attributed to a cell that does not contain it.
//
// Points outside the grid evaluate every bit exactly. Banks that are not
// certifiable at all — a transistor-level Spice monitor in the bank, a
// drive pattern that mixes one axis across both branches, or more than
// eight monitors (one byte of bits per cell) — skip the LUT and classify
// every point with the scalar path.
//
// # Separable build
//
// Input.Voltage is exactly x, y or a DC constant, so every corner
// balance is assembled from per-device currents tabulated once at the
// lutCells+1 node coordinates i/lutCells and summed as (I0+I1)−(I2+I3),
// the operation order of Balance. The table
// is therefore bit-identical to evaluating Balance at every grid node,
// at 4·(lutCells+1) IDSat calls per monitor instead of 4·(lutCells+1)².

const (
	// lutCells is the zone LUT resolution per axis. Power of two, so the
	// cell index arithmetic below is exact.
	lutCells = 256
	// lutMarginA is the corner-balance magnitude (in amperes) below which
	// a cell leaves a monitor's bit unproved. Monitor branch currents are
	// on the µA scale; the softplus range-switch discontinuity is below
	// 1e-18 A.
	lutMarginA = 1e-15
	// lutMaxMonitors bounds the bank size the LUT serves: proved bits and
	// their mask are one byte each per cell.
	lutMaxMonitors = 8
)

// zoneLUT is one bank's per-bit certified classification grid over
// [0,1)², row-major [y][x].
type zoneLUT struct {
	mons []*Analytic
	full uint8   // mask with every monitor's bit set
	bits []uint8 // bits proved by the cell's corners
	mask []uint8 // which bits are proved
}

// classify returns the zone code at (x, y): proved bits from the cell
// containing the point, the rest (every bit outside the grid or for
// NaN) from the exact monitor evaluation.
func (l *zoneLUT) classify(x, y float64) Code {
	var c Code
	miss := l.full
	if x >= 0 && x < 1 && y >= 0 && y < 1 {
		idx := int(y*lutCells)*lutCells + int(x*lutCells)
		c, miss = Code(l.bits[idx]), l.full&^l.mask[idx]
	}
	for ; miss != 0; miss &= miss - 1 {
		m := bits.TrailingZeros8(miss)
		if l.mons[m].Bit(x, y) == 1 {
			c |= 1 << uint(m)
		}
	}
	return c
}

// lutMonotone reports whether this monitor's balance is monotone in each
// plane axis: every input a given axis drives must sit in a single
// branch (left M1/M2 or right M3/M4). With IDSat nondecreasing in V_GS
// this makes Balance monotone in x and in y, which is what lets corner
// signs certify a whole cell. All six Table I configurations qualify.
func (a *Analytic) lutMonotone() bool {
	for _, kind := range []InputKind{DriveX, DriveY} {
		left, right := false, false
		for i, in := range a.cfg.Inputs {
			if in.Kind != kind {
				continue
			}
			if i < 2 {
				left = true
			} else {
				right = true
			}
		}
		if left && right {
			return false
		}
	}
	return true
}

// buildLUT constructs the certified zone LUT, or returns nil when the
// bank is not certifiable (non-analytic monitors, a drive pattern
// without per-axis monotonicity, or more than lutMaxMonitors monitors).
func (b *Bank) buildLUT() *zoneLUT {
	if len(b.monitors) > lutMaxMonitors {
		return nil
	}
	mons := make([]*Analytic, len(b.monitors))
	for i, m := range b.monitors {
		a, ok := m.(*Analytic)
		if !ok || !a.lutMonotone() {
			return nil
		}
		mons[i] = a
	}
	const n = lutCells
	l := &zoneLUT{
		mons: mons,
		full: uint8(1<<len(mons) - 1),
		bits: make([]uint8, n*n),
		mask: make([]uint8, n*n),
	}
	var coord [n + 1]float64
	for k := range coord {
		coord[k] = float64(k) / float64(n)
	}
	// cur[d][k] is input device d's current at node coordinate k, which
	// indexes the node's x (axis 0) or y (axis 1) position as the input
	// is driven; a DC input's current is the same at every k.
	var cur [4][n + 1]float64
	var axis [4]int
	sign := make([]int8, (n+1)*(n+1)) // margin sign of the balance per node
	for mi, a := range mons {
		for d, in := range a.cfg.Inputs {
			for k, v := range coord {
				cur[d][k] = a.devs[d].IDSat(in.Voltage(v, v))
			}
			axis[d] = 0
			if in.Kind == DriveY {
				axis[d] = 1
			}
		}
		for j := 0; j <= n; j++ {
			for i := 0; i <= n; i++ {
				ij := [2]int{i, j}
				bal := (cur[0][ij[axis[0]]] + cur[1][ij[axis[1]]]) - (cur[2][ij[axis[2]]] + cur[3][ij[axis[3]]])
				sign[j*(n+1)+i] = signumMargin(bal)
			}
		}
		bit := uint8(1) << uint(mi)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				s := sign[j*(n+1)+i]
				if s == 0 || sign[j*(n+1)+i+1] != s || sign[(j+1)*(n+1)+i] != s || sign[(j+1)*(n+1)+i+1] != s {
					continue
				}
				idx := j*n + i
				l.mask[idx] |= bit
				if int(s) != a.refSign {
					l.bits[idx] |= bit
				}
			}
		}
	}
	return l
}

// signumMargin is signum with the certification margin: balances inside
// ±lutMarginA count as boundary (0) and leave the bit unproved.
func signumMargin(v float64) int8 {
	switch {
	case v > lutMarginA:
		return 1
	case v < -lutMarginA:
		return -1
	default:
		return 0
	}
}

// lut returns the bank's zone LUT, building it once on first use (nil
// when the bank is not certifiable). Safe for concurrent use.
func (b *Bank) lut() *zoneLUT {
	b.lutOnce.Do(func() { b.zlut = b.buildLUT() })
	return b.zlut
}

// ClassifyBatch classifies every (xs[i], ys[i]) pair into codes[i]. It
// is bit-identical to calling Classify point by point: bits the LUT
// proves for a point's cell answer by table lookup, and every unproved
// bit — a boundary crossing the cell, the margin, or a point outside the
// grid — is evaluated exactly by its monitor. Banks that build no LUT
// (e.g. the transistor-level Spice bank) classify every point through
// the scalar path. It is the ε = 0 case of ClassifyBounded's loop, with
// every miss classified in place.
//
// The three slices must have equal length. After the one-time LUT
// construction the call performs no allocations.
//
//mclint:hotpath
func (b *Bank) ClassifyBatch(xs, ys []float64, codes []Code) {
	checkBatch(xs, ys, codes)
	l := b.lut()
	if l == nil {
		for i := range xs {
			codes[i] = b.Classify(xs[i], ys[i])
		}
		return
	}
	l.scan(xs, ys, 0, codes, nil, true)
}

// ClassifyBounded classifies the points whose code the LUT proves from
// an approximate y: ys[i] need only be within eps of the true y. Point i
// gets its table code in codes[i] when x is inside the grid,
// [ys[i]−eps, ys[i]+eps] lies inside one LUT row of the grid, and that
// cell proves every monitor bit — then the true point shares the cell,
// so the code is Classify's. Every other index (a straddled row, a
// partially proved cell, a point outside the grid, NaN) is appended to
// miss, in order, and codes[i] is left for the caller to fill exactly. A
// bank without a LUT proves nothing: every index is a miss.
//
// The interval test is sound in floating point: the true y is itself a
// float64 in the real interval [y−eps, y+eps], and rounding is
// monotone, so fl(y−eps) ≤ y_true ≤ fl(y+eps); the row index is
// monotone in y, so equal rows at both ends pin the true row.
//
// xs, ys and codes must have equal length. With miss of sufficient
// capacity the call performs no allocations.
//
//mclint:hotpath
func (b *Bank) ClassifyBounded(xs, ys []float64, eps float64, codes []Code, miss []int32) []int32 {
	checkBatch(xs, ys, codes)
	l := b.lut()
	if l == nil {
		for i := range xs {
			//mclint:hotalloc caller-owned miss buffer; warm calls reuse its capacity
			miss = append(miss, int32(i))
		}
		return miss
	}
	return l.scan(xs, ys, eps, codes, miss, false)
}

// checkBatch panics unless the batch slices have equal length.
func checkBatch(xs, ys []float64, codes []Code) {
	if len(xs) != len(ys) || len(codes) != len(xs) {
		panic("monitor: batch classification needs equal-length xs, ys and codes")
	}
}

// scan is the one LUT classification loop behind ClassifyBatch and
// ClassifyBounded: a point whose eps-interval sits in one fully proved
// cell takes the cell's code; every other point is classified in place
// by classify (exact) or appended to miss.
//
//mclint:hotpath
func (l *zoneLUT) scan(xs, ys []float64, eps float64, codes []Code, miss []int32, exact bool) []int32 {
	for i, x := range xs {
		y := ys[i]
		if lo, hi := y-eps, y+eps; x >= 0 && x < 1 && lo >= 0 && hi < 1 {
			if row := int(lo * lutCells); row == int(hi*lutCells) {
				if idx := row*lutCells + int(x*lutCells); l.mask[idx] == l.full {
					codes[i] = Code(l.bits[idx])
					continue
				}
			}
		}
		if exact {
			codes[i] = l.classify(x, y)
		} else {
			//mclint:hotalloc caller-owned miss buffer; warm calls reuse its capacity
			miss = append(miss, int32(i))
		}
	}
	return miss
}

// ClassifyPoint is ClassifyBatch for a single point: the zone code at
// (x, y), bit-identical to Classify, with the bits the LUT proves read
// from the table. Edge bisection calls it once per probe. After the
// one-time LUT construction the call performs no allocations.
//
//mclint:hotpath
func (b *Bank) ClassifyPoint(x, y float64) Code {
	if l := b.lut(); l != nil {
		return l.classify(x, y)
	}
	return b.Classify(x, y)
}

// HasLUT reports whether the bank classifies on a certified zone LUT,
// building it on first use. ClassifyBounded proves nothing without one.
func (b *Bank) HasLUT() bool { return b.lut() != nil }

// BatchInfo reports whether ClassifyBatch runs on a certified zone LUT
// for this bank and, if so, the fraction of grid cells that prove every
// monitor bit (the rest evaluate their unproved bits exactly).
func (b *Bank) BatchInfo() (lutEnabled bool, certifiedFrac float64) {
	l := b.lut()
	if l == nil {
		return false, 0
	}
	n := 0
	for _, m := range l.mask {
		if m == l.full {
			n++
		}
	}
	return true, float64(n) / float64(len(l.mask))
}

// lutState carries the lazily built zone LUT of a bank.
type lutState struct {
	lutOnce sync.Once
	zlut    *zoneLUT
}
