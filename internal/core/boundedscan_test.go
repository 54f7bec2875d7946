package core

import (
	"runtime"
	"testing"

	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/wave"
)

// TestBoundedScanMatchesExactBatch: the scan codes of the bounded path
// (root-table approximation, ClassifyBounded, exact re-evaluation of the
// misses) equal ClassifyBatch over the exactly evaluated scan grid, for
// Monte-Carlo dies and f0 shifts on both observations, at a coarse scan,
// at a resolution the bound does not cover (8190: 4 ∤ n, exact
// fallback) and at the default 8192.
func TestBoundedScanMatchesExactBatch(t *testing.T) {
	dies := 200
	if testing.Short() {
		dies = 40
	}
	for _, n := range []int{64, 8190, 8192} {
		for _, obs := range []Observation{ObserveLP, ObserveBP} {
			sys := Default()
			sys.ScanN, sys.Observe = n, obs
			ts, xs, err := sys.scans()
			if err != nil {
				t.Fatal(err)
			}
			ys := make([]float64, len(ts))
			want := make([]monitor.Code, len(ts))
			sc := NewTrialScratch()
			misses, points := 0, 0
			for d := 0; d < dies; d++ {
				dev := Deviation{F0Shift: -0.2 + 0.4*float64(d%9)/8}
				if d >= 9 {
					s := rng.NewSub(7, uint64(d))
					dev = Deviation{
						RDrift:  s.Gauss(0, 0.05),
						RQDrift: s.Gauss(0, 0.05),
						RGDrift: s.Gauss(0, 0.05),
						CDrift:  s.Gauss(0, 0.05),
					}
				}
				c, err := sys.Deviated(dev)
				if err != nil {
					t.Fatal(err)
				}
				out, err := sys.output(c)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := out.(*wave.Multitone).EvalGrid(sys.Period(), n, ys); ok != (n%4 == 0) {
					t.Fatalf("ScanN %d: EvalGrid ok = %v", n, ok)
				}
				got, err := sys.scanCodes(out, sc)
				if err != nil {
					t.Fatal(err)
				}
				wave.EvalInto(out, ts, ys)
				sys.Bank.ClassifyBatch(xs, ys, want)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("ScanN %d %s die %d (%v): scan point %d code %06b, exact batch %06b",
							n, obs, d, dev, i, got[i], want[i])
					}
				}
				if n%4 == 0 {
					misses += len(sc.miss)
					points += len(ts)
				}
			}
			if points > 0 {
				t.Logf("ScanN %d %s: %.2f%% of scan points re-evaluated exactly", n, obs, 100*float64(misses)/float64(points))
			}
		}
	}
}

// TestAveragedNDFScratchFlatMemory pins the warm per-call heap traffic
// of AveragedNDFScratch below 4 KiB: the clean output tick samples live
// in the trial scratch, so what remains is the CUT output, the
// per-period streams and the campaign bookkeeping — not an O(ticks)
// buffer per call.
func TestAveragedNDFScratchFlatMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	sys := Default()
	cut, err := sys.Shifted(0.02)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewTrialScratch()
	src := rng.New(3)
	if _, err := sys.AveragedNDFScratch(cut, 0.005, src.Split(0), 4, sc); err != nil {
		t.Fatal(err) // warm the LUT, grids, golden signature and scratch
	}
	const runs = 20
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sys.AveragedNDFScratch(cut, 0.005, src.Split(uint64(i)), 4, sc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 4096 {
		t.Fatalf("warm AveragedNDFScratch allocates %d B per call, want < 4096", perCall)
	}
}
