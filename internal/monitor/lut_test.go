package monitor

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/mos"
	"repro/internal/rng"
)

// TestClassifyBatchMatchesScalarRandom is the LUT certification property
// test: on random points — inside the grid, outside [0,1), and far out of
// range — ClassifyBatch and ClassifyPoint must equal per-point Classify
// bit for bit.
func TestClassifyBatchMatchesScalarRandom(t *testing.T) {
	bank := NewAnalyticTableI()
	src := rng.New(11)
	const n = 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		switch i % 4 {
		case 0, 1: // in-grid points, where the LUT answers
			xs[i] = src.Float64()
			ys[i] = src.Float64()
		case 2: // straddle the grid edges
			xs[i] = -0.1 + 1.2*src.Float64()
			ys[i] = -0.1 + 1.2*src.Float64()
		default: // far outside the observed square
			xs[i] = -2 + 4*src.Float64()
			ys[i] = -2 + 4*src.Float64()
		}
	}
	codes := make([]Code, n)
	bank.ClassifyBatch(xs, ys, codes)
	for i := range xs {
		want := bank.Classify(xs[i], ys[i])
		if codes[i] != want {
			t.Fatalf("point %d (%.6f, %.6f): batch %06b, scalar %06b",
				i, xs[i], ys[i], codes[i], want)
		}
		if got := bank.ClassifyPoint(xs[i], ys[i]); got != want {
			t.Fatalf("point %d (%.6f, %.6f): ClassifyPoint %06b, scalar %06b",
				i, xs[i], ys[i], got, want)
		}
	}
}

// TestClassifyBatchBoundaryAndEdgePoints stresses the hard cases: points
// exactly on monitor boundaries (where the balance is ~0 and the cell
// must have left that monitor's bit unproved), exactly on LUT cell edges
// (i/256), the corners of the grid, and NaN coordinates.
func TestClassifyBatchBoundaryAndEdgePoints(t *testing.T) {
	bank := NewAnalyticTableI()
	var xs, ys []float64
	// Monitor-boundary points: bisected boundary crossings of every curve.
	for _, m := range bank.Monitors() {
		a := m.(*Analytic)
		for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			if y, ok := a.BoundaryY(x, 0, 1); ok {
				xs = append(xs, x)
				ys = append(ys, y)
			}
		}
	}
	// Cell-edge and grid-corner points.
	for _, i := range []int{0, 1, 127, 128, 255, 256} {
		v := float64(i) / 256
		xs = append(xs, v, v, 0.5)
		ys = append(ys, v, 0.5, v)
	}
	// Exactly 1.0 (outside the half-open grid), negative zero and NaN.
	xs = append(xs, 1.0, math.Copysign(0, -1), math.NaN(), 0.5)
	ys = append(ys, 1.0, 0.5, 0.5, math.NaN())
	codes := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes)
	for i := range xs {
		want := bank.Classify(xs[i], ys[i])
		if codes[i] != want {
			t.Fatalf("hard point %d (%v, %v): batch %06b, scalar %06b",
				i, xs[i], ys[i], codes[i], want)
		}
		if got := bank.ClassifyPoint(xs[i], ys[i]); got != want {
			t.Fatalf("hard point %d (%v, %v): ClassifyPoint %06b, scalar %06b",
				i, xs[i], ys[i], got, want)
		}
	}
}

// stubMonitor is a non-analytic monitor: banks containing one must skip
// the LUT and classify through the scalar path.
type stubMonitor struct{ cfg Config }

func (s stubMonitor) Bit(x, y float64) int {
	if x+y > 1 {
		return 1
	}
	return 0
}
func (s stubMonitor) Config() Config { return s.cfg }

func TestClassifyBatchFallsBackWithoutCertifiableBank(t *testing.T) {
	cfgs := TableI()
	bank := NewBank(MustAnalytic(cfgs[0]), stubMonitor{cfg: cfgs[1]})
	if enabled, _ := bank.BatchInfo(); enabled {
		t.Fatal("bank with a non-analytic monitor must not enable the LUT")
	}
	src := rng.New(3)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i], ys[i] = src.Float64(), src.Float64()
	}
	codes := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes)
	for i := range xs {
		if want := bank.Classify(xs[i], ys[i]); codes[i] != want {
			t.Fatalf("fallback point %d mismatch", i)
		}
	}
}

// TestLUTEnabledForTableI pins that the paper's bank actually certifies:
// the batched engine's speedup relies on most cells proving every bit.
func TestLUTEnabledForTableI(t *testing.T) {
	enabled, frac := NewAnalyticTableI().BatchInfo()
	if !enabled {
		t.Fatal("Table I bank must build a certified zone LUT")
	}
	if frac < 0.90 {
		t.Fatalf("fully certified fraction %.3f, want >= 0.90 (boundary cells only)", frac)
	}
}

// TestLUTMonotonePrecondition: a drive pattern mixing one axis across
// both branches breaks the per-axis monotonicity the certification rests
// on, so such a bank must refuse the LUT.
func TestLUTMonotonePrecondition(t *testing.T) {
	cfg := baseConfig("mixed")
	cfg.WidthsNm = [4]float64{1800, 1800, 1800, 1800}
	cfg.Inputs = [4]Input{X(), Y(), X(), Bias(0.5)} // X drives M1 (left) and M3 (right)
	bank := NewBank(MustAnalytic(cfg))
	if enabled, _ := bank.BatchInfo(); enabled {
		t.Fatal("mixed-branch drive must not certify")
	}
	// The scalar fallback still classifies correctly.
	src := rng.New(9)
	for i := 0; i < 200; i++ {
		x, y := src.Float64(), src.Float64()
		codes := make([]Code, 1)
		bank.ClassifyBatch([]float64{x}, []float64{y}, codes)
		if codes[0] != bank.Classify(x, y) {
			t.Fatalf("fallback mismatch at (%v, %v)", x, y)
		}
	}
}

// Allocation pins: the scalar classifier and the warmed batch classifier
// must not allocate in steady state — campaign workers call them millions
// of times per trial batch.
func TestClassifyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	bank := NewAnalyticTableI()
	if a := testing.AllocsPerRun(1000, func() {
		bank.Classify(0.4, 0.6)
	}); a != 0 {
		t.Fatalf("Classify allocates %.1f per call, want 0", a)
	}
	src := rng.New(5)
	xs := make([]float64, 256)
	ys := make([]float64, 256)
	for i := range xs {
		xs[i], ys[i] = src.Float64(), src.Float64()
	}
	codes := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes) // build the LUT outside the measurement
	if a := testing.AllocsPerRun(200, func() {
		bank.ClassifyBatch(xs, ys, codes)
	}); a != 0 {
		t.Fatalf("warm ClassifyBatch allocates %.1f per call, want 0", a)
	}
	miss := make([]int32, 0, len(xs))
	if a := testing.AllocsPerRun(200, func() {
		miss = bank.ClassifyBounded(xs, ys, 1e-12, codes, miss[:0])
	}); a != 0 {
		t.Fatalf("warm ClassifyBounded allocates %.1f per call, want 0", a)
	}
	k := 0
	if a := testing.AllocsPerRun(1000, func() {
		bank.ClassifyPoint(xs[k%len(xs)], ys[k%len(ys)])
		k++
	}); a != 0 {
		t.Fatalf("warm ClassifyPoint allocates %.1f per call, want 0", a)
	}
}

func TestClassifyBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewAnalyticTableI().ClassifyBatch(make([]float64, 3), make([]float64, 3), make([]Code, 2))
}

// referenceLUT is the direct form of the per-bit certification: the
// margin sign of Analytic.Balance evaluated at every grid node, then a
// bit proved wherever a cell's four corners agree. buildLUT's separable
// table must reproduce it exactly.
func referenceLUT(b *Bank) (proved, mask []uint8) {
	const n = lutCells
	proved, mask = make([]uint8, n*n), make([]uint8, n*n)
	bal := make([]float64, (n+1)*(n+1))
	for mi, m := range b.Monitors() {
		a := m.(*Analytic)
		for j := 0; j <= n; j++ {
			for i := 0; i <= n; i++ {
				bal[j*(n+1)+i] = a.Balance(float64(i)/float64(n), float64(j)/float64(n))
			}
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				s := signumMargin(bal[j*(n+1)+i])
				if s == 0 || signumMargin(bal[j*(n+1)+i+1]) != s ||
					signumMargin(bal[(j+1)*(n+1)+i]) != s || signumMargin(bal[(j+1)*(n+1)+i+1]) != s {
					continue
				}
				mask[j*n+i] |= 1 << uint(mi)
				if int(s) != a.refSign {
					proved[j*n+i] |= 1 << uint(mi)
				}
			}
		}
	}
	return proved, mask
}

// tableIWith rebuilds the Table I bank with every input device's
// parameters mapped through f — the construction of the process-corner
// and temperature banks of the testbench drift campaigns.
func tableIWith(f func(mos.Params) mos.Params) *Bank {
	var ms []Monitor
	for _, cfg := range TableI() {
		a := MustAnalytic(cfg)
		devs := a.Devices()
		for j := range devs {
			devs[j].P = f(devs[j].P)
		}
		ms = append(ms, a.WithDevices(devs))
	}
	return NewBank(ms...)
}

// TestLUTMatchesReferenceBuild pins the separable table build to the
// direct Balance-at-every-node certification, bit for bit, on every kind
// of bank the campaigns classify with: Table I, a Monte-Carlo die, the
// five process corners and the temperature sweep.
func TestLUTMatchesReferenceBuild(t *testing.T) {
	type namedBank struct {
		name string
		bank *Bank
	}
	banks := []namedBank{
		{"tableI", NewAnalyticTableI()},
		{"mc-die", NewAnalyticTableI().Perturbed(mos.Default65nmVariation().SampleDie(rng.New(7)))},
	}
	for _, c := range mos.Corners() {
		banks = append(banks, namedBank{"corner-" + c.String(),
			tableIWith(func(p mos.Params) mos.Params { return p.AtCorner(c) })})
	}
	for _, tk := range []float64{233, 273, 300, 323, 358, 398} {
		banks = append(banks, namedBank{fmt.Sprintf("temp-%gK", tk),
			tableIWith(func(p mos.Params) mos.Params { return p.AtTemperature(tk) })})
	}
	for _, nb := range banks {
		name, bank := nb.name, nb.bank
		l := bank.lut()
		if l == nil {
			t.Fatalf("%s: bank builds no LUT", name)
		}
		refBits, refMask := referenceLUT(bank)
		for idx := range refMask {
			if l.mask[idx] != refMask[idx] || l.bits[idx] != refBits[idx] {
				t.Fatalf("%s: cell (%d, %d): table bits %06b mask %06b, reference bits %06b mask %06b",
					name, idx%lutCells, idx/lutCells, l.bits[idx], l.mask[idx], refBits[idx], refMask[idx])
			}
		}
		// And the table answers exactly on this bank's own points.
		src := rng.New(13)
		for k := 0; k < 2000; k++ {
			x, y := src.Float64(), src.Float64()
			if got, want := bank.ClassifyPoint(x, y), bank.Classify(x, y); got != want {
				t.Fatalf("%s: (%v, %v): ClassifyPoint %06b, Classify %06b", name, x, y, got, want)
			}
		}
	}
}

// TestLUTProvesMostBitsOnBoundaryCells: the per-bit table is what keeps
// a boundary cell cheap — a cell crossed by one curve still proves the
// other monitors' bits. On Table I almost every partially certified cell
// leaves at most two bits to evaluate exactly.
func TestLUTProvesMostBitsOnBoundaryCells(t *testing.T) {
	l := NewAnalyticTableI().lut()
	partial, fewMissing := 0, 0
	for _, m := range l.mask {
		if m == l.full {
			continue
		}
		partial++
		if bits.OnesCount8(l.full&^m) <= 2 {
			fewMissing++
		}
	}
	if partial == 0 {
		t.Fatal("no boundary cells: the Table I curves must cross the grid")
	}
	if frac := float64(fewMissing) / float64(partial); frac < 0.95 {
		t.Fatalf("only %.3f of %d boundary cells leave <= 2 bits unproved", frac, partial)
	}
}

// TestLUTRefusesOversizedBank: proved bits and masks are one byte per
// cell, so a bank of more than eight monitors builds no LUT and both
// batch APIs fall back to the exact classifier.
func TestLUTRefusesOversizedBank(t *testing.T) {
	var ms []Monitor
	for len(ms) <= lutMaxMonitors {
		for _, cfg := range TableI() {
			ms = append(ms, MustAnalytic(cfg))
		}
	}
	bank := NewBank(ms...)
	if enabled, _ := bank.BatchInfo(); enabled {
		t.Fatalf("%d-monitor bank must not build a LUT", len(ms))
	}
	src := rng.New(4)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i], ys[i] = src.Float64(), src.Float64()
	}
	codes := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes)
	for i := range xs {
		want := bank.Classify(xs[i], ys[i])
		if codes[i] != want || bank.ClassifyPoint(xs[i], ys[i]) != want {
			t.Fatalf("oversized bank point %d mismatch", i)
		}
	}
}

// TestClassifyBounded covers the bounded scan's soundness cases: a point
// is answered from the table only when its whole eps-interval sits in
// one fully proved cell inside the grid. Points within eps of a row
// boundary (on either side, next to fully proved cells), within eps of
// the grid's bottom and top, NaN, and points in partially proved cells
// must all be misses; every answered point must carry Classify's code at
// both ends of its interval; misses are listed in order and their codes
// left untouched.
func TestClassifyBounded(t *testing.T) {
	bank := NewAnalyticTableI()
	l := bank.lut()
	const eps = 1e-9
	full := func(row, col int) bool { return l.mask[row*lutCells+col] == l.full }
	// want: +1 must be answered, -1 must miss, 0 either.
	var xs, ys []float64
	var want []int
	add := func(x, y float64, w int) {
		xs, ys, want = append(xs, x), append(ys, y), append(want, w)
	}
	// Row-boundary straddles between two fully proved cells, so only the
	// interval test can send them to miss.
	straddles := 0
	for row := 1; row < lutCells; row++ {
		for col := 0; col < lutCells; col += 17 {
			if !full(row-1, col) || !full(row, col) {
				continue
			}
			x, edge := (float64(col)+0.5)/lutCells, float64(row)/lutCells
			add(x, edge-eps/2, -1)
			add(x, edge+eps/2, -1)
			add(x, edge, -1)
			add(x, edge-2*eps, +1) // clear of the edge: answered
			add(x, edge+2*eps, +1)
			straddles++
		}
	}
	if straddles < 100 {
		t.Fatalf("only %d fully proved row pairs found", straddles)
	}
	// The grid's bottom and top: y < eps and y > 1−eps.
	for _, x := range []float64{0.3, 0.5, 0.7} {
		add(x, eps/2, -1)
		add(x, 0, -1)
		add(x, 1-eps/2, -1)
		add(x, math.Nextafter(1, 0), -1)
		add(x, -eps/2, -1)
	}
	// NaN in either coordinate.
	add(math.NaN(), 0.5, -1)
	add(0.5, math.NaN(), -1)
	// Cell centres of partially proved cells.
	partial := 0
	for idx, m := range l.mask {
		if m != l.full && idx%7 == 0 {
			add((float64(idx%lutCells)+0.5)/lutCells, (float64(idx/lutCells)+0.5)/lutCells, -1)
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no partially proved cells found")
	}
	// Random points, in and out of the grid.
	src := rng.New(21)
	for i := 0; i < 5000; i++ {
		add(-0.05+1.1*src.Float64(), -0.05+1.1*src.Float64(), 0)
	}

	const sentinel = Code(0xffff)
	codes := make([]Code, len(xs))
	for i := range codes {
		codes[i] = sentinel
	}
	miss := bank.ClassifyBounded(xs, ys, eps, codes, nil)
	inMiss := make([]bool, len(xs))
	for k, i := range miss {
		if k > 0 && i <= miss[k-1] {
			t.Fatalf("miss list out of order at %d: %d after %d", k, i, miss[k-1])
		}
		inMiss[i] = true
		if codes[i] != sentinel {
			t.Fatalf("miss %d (%v, %v): code overwritten with %06b", i, xs[i], ys[i], codes[i])
		}
	}
	for i := range xs {
		if want[i] < 0 && !inMiss[i] {
			t.Fatalf("point %d (%v, %v) answered %06b, want a miss", i, xs[i], ys[i], codes[i])
		}
		if want[i] > 0 && inMiss[i] {
			t.Fatalf("point %d (%v, %v) missed, want it answered", i, xs[i], ys[i])
		}
		if inMiss[i] {
			continue
		}
		for _, y := range []float64{ys[i] - eps, ys[i], ys[i] + eps} {
			if c := bank.Classify(xs[i], y); codes[i] != c {
				t.Fatalf("point %d (%v, %v): bounded code %06b, Classify at y=%v is %06b",
					i, xs[i], ys[i], codes[i], y, c)
			}
		}
	}

	// eps = 0 answers exactly what ClassifyBatch reads from the table.
	batch := make([]Code, len(xs))
	bank.ClassifyBatch(xs, ys, batch)
	for i := range codes {
		codes[i] = sentinel
	}
	for _, i := range bank.ClassifyBounded(xs, ys, 0, codes, nil) {
		codes[i] = batch[i]
	}
	for i := range codes {
		if codes[i] != batch[i] {
			t.Fatalf("point %d: eps=0 bounded code %06b, batch %06b", i, codes[i], batch[i])
		}
	}
}

// TestClassifyBoundedWithoutLUT: a bank that builds no LUT proves
// nothing, so every point is a miss, appended after the caller's prefix.
func TestClassifyBoundedWithoutLUT(t *testing.T) {
	cfgs := TableI()
	bank := NewBank(MustAnalytic(cfgs[0]), stubMonitor{cfg: cfgs[1]})
	if bank.HasLUT() {
		t.Fatal("bank with a non-analytic monitor reports a LUT")
	}
	if !NewAnalyticTableI().HasLUT() {
		t.Fatal("Table I bank reports no LUT")
	}
	xs, ys := []float64{0.2, 0.5, 0.8}, []float64{0.5, 0.5, 0.5}
	miss := bank.ClassifyBounded(xs, ys, 0, make([]Code, 3), []int32{-1})
	if fmt.Sprint(miss) != "[-1 0 1 2]" {
		t.Fatalf("miss = %v, want [-1 0 1 2]", miss)
	}
}
