package core

import (
	"math"
	"testing"

	"repro/internal/monitor"
	"repro/internal/signature"
	"repro/internal/wave"
)

// TestScanStepsResolveSingleTransitions guards the known approximation of
// exact signature extraction: ExactFromCodes refines one edge per scan
// step, so several transitions inside one step would be merged into one.
// On the golden CUT and every CUT of the Fig. 8 ±20 % f0 sweep, at the
// default ScanN:
//
//   - no scan step changes more than one monitor bit (a step that
//     crosses two boundaries would show as a multi-bit change, or as two
//     flips cancelling out inside the step, which the finer scan below
//     catches);
//   - the signature extracted at 2·ScanN has the same code sequence and
//     every edge within 2·T·1e-9 (both scans bisect to T·1e-9).
func TestScanStepsResolveSingleTransitions(t *testing.T) {
	sys := Default()
	fine := Default()
	fine.ScanN = 2 * sys.ScanN
	T := sys.Period()
	ts := make([]float64, sys.ScanN+1)
	for i := range ts {
		ts[i] = T * float64(i) / float64(sys.ScanN)
	}
	xs, ys := make([]float64, len(ts)), make([]float64, len(ts))
	wave.EvalInto(sys.Stimulus, ts, xs)
	codes := make([]monitor.Code, len(ts))
	const points = 17 // the fig8 campaign's sweep grid
	for k := 0; k < points; k++ {
		shift := -0.20 + 0.40*float64(k)/float64(points-1)
		c, err := sys.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.output(c)
		if err != nil {
			t.Fatal(err)
		}
		wave.EvalInto(out, ts, ys)
		sys.Bank.ClassifyBatch(xs, ys, codes)
		for i := 1; i < len(codes); i++ {
			if d := codes[i].HammingDistance(codes[i-1]); d > 1 {
				t.Fatalf("shift %+.3f: scan step %d (t=%g) changes %d monitor bits (%06b -> %06b)",
					shift, i, ts[i], d, codes[i-1], codes[i])
			}
		}
		coarse, err := sys.ExactSignature(c)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := fine.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fine.ExactSignature(cf)
		if err != nil {
			t.Fatal(err)
		}
		compareEdges(t, shift, coarse, ref, 2*T*1e-9)
	}
}

// compareEdges asserts two signatures visit the same code sequence with
// every zone edge (cumulative duration) within tol seconds.
func compareEdges(t *testing.T, shift float64, a, b *signature.Signature, tol float64) {
	t.Helper()
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("shift %+.3f: %d entries at ScanN, %d at 2·ScanN", shift, len(a.Entries), len(b.Entries))
	}
	ea, eb := 0.0, 0.0
	for i := range a.Entries {
		if a.Entries[i].Code != b.Entries[i].Code {
			t.Fatalf("shift %+.3f: entry %d code %06b at ScanN, %06b at 2·ScanN",
				shift, i, a.Entries[i].Code, b.Entries[i].Code)
		}
		ea += a.Entries[i].Dur
		eb += b.Entries[i].Dur
		if d := math.Abs(ea - eb); d > tol {
			t.Fatalf("shift %+.3f: edge %d differs by %g s between scans, want <= %g", shift, i, d, tol)
		}
	}
}
