package testbench

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
)

// synthNullTrial is a deterministic, allocation-free stand-in for a
// noisy golden NDF measurement: a pure function of the trial index that
// permutes its values within blocks of 9973 trials, so the maximum sits
// mid-run rather than at the last trial. Using it instead of a real
// simulator isolates the calibration engine's own memory and
// determinism properties from the trial cost.
func synthNullTrial(i int, _ *core.TrialScratch) (float64, error) {
	return 0.01 + float64((i*7919)%9973)*1.3e-5, nil
}

// materializedThreshold is the reference calibration: every null NDF
// collected, then ndf.ThresholdFromNull at quantile 1.
func materializedThreshold(t *testing.T, n int, trial func(int, *core.TrialScratch) (float64, error)) (ndf.Decision, error) {
	t.Helper()
	nulls, err := campaign.RunScratch(context.Background(), campaign.Engine{Workers: 1}, n, core.NewTrialScratch, trial)
	if err != nil {
		t.Fatal(err)
	}
	return ndf.ThresholdFromNull(nulls, 1.0)
}

// A calibration large enough to have taken the former quantile-sketch
// path (more than 4096 null trials) is exactly the materialized
// threshold: the streamed max moves no decision.
func TestCalibrateNullThresholdSketchMatchesExact(t *testing.T) {
	const n = 4096 + 1000
	eng := campaign.Engine{Workers: 2, Seed: 3}
	dec, err := CalibrateNullThreshold(context.Background(), eng, n, 0, synthNullTrial)
	if err != nil {
		t.Fatal(err)
	}
	want, err := materializedThreshold(t, n, synthNullTrial)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(dec.Threshold) != math.Float64bits(want.Threshold) {
		t.Fatalf("streamed threshold %v != exact threshold %v", dec.Threshold, want.Threshold)
	}
}

// The streamed calibration equals the materialized max-quantile
// threshold bit for bit, on both sides of every chunk-size boundary and
// at 1, 2, 4 and 8 workers.
func TestCalibrateNullThresholdWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 20, 4096, 4097, 4608, 100_000} {
		want, err := materializedThreshold(t, n, synthNullTrial)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			dec, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: w, Seed: 5}, n, 0, synthNullTrial)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(dec.Threshold) != math.Float64bits(want.Threshold) {
				t.Fatalf("n=%d workers=%d: threshold %v, materialized %v", n, w, dec.Threshold, want.Threshold)
			}
		}
	}
}

// Non-finite null measurements fail calibration with the materialized
// path's error for the lowest-index one, whichever of NaN and +Inf comes
// first and however the trials are split across workers.
func TestCalibrateNullThresholdRejectsNaN(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ n, nanAt, infAt int }{
		{20, 3, 15},
		{20, 15, 3},
		{4608, 2500, 700},
		{4608, 700, 2500},
	} {
		poison := func(i int, sc *core.TrialScratch) (float64, error) {
			switch i {
			case tc.nanAt:
				return math.NaN(), nil
			case tc.infAt:
				return math.Inf(1), nil
			}
			return synthNullTrial(i, sc)
		}
		_, want := materializedThreshold(t, tc.n, poison)
		if want == nil {
			t.Fatal("materialized path accepted a non-finite null sample")
		}
		for _, w := range []int{1, 2, 4, 8} {
			_, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: w, Seed: 1}, tc.n, 0, poison)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("n=%d NaN@%d +Inf@%d workers=%d: error %v, want %q", tc.n, tc.nanAt, tc.infAt, w, err, want)
			}
		}
	}
}

// A non-zero sketch precision is rejected: the calibration is exact and
// has nothing to tune.
func TestCalibrateNullThresholdBadPrecision(t *testing.T) {
	for _, prec := range []int{-1, 6, 99} {
		if _, err := CalibrateNullThreshold(context.Background(), campaign.Engine{Workers: 1}, 20, prec, synthNullTrial); err == nil {
			t.Fatalf("sketch precision %d accepted", prec)
		}
	}
}

// chunkMeter records the pool size and the trials of every chunk a
// reduction folds.
type chunkMeter struct {
	mu      sync.Mutex
	workers int
	chunks  map[int]int
}

func (m *chunkMeter) ReduceStart(workers, _ int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workers = workers
}

func (m *chunkMeter) ChunkStart(int) {}

func (m *chunkMeter) ChunkDone(chunk, trials int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chunks[chunk] += trials
}

// A calibration sizes its chunks so every worker of the pool gets one:
// at two workers, 20 null trials split 10 + 10 and 4608 split 2304 +
// 2304 rather than landing in one serial DefaultChunk.
func TestCalibrateNullThresholdSpreadsChunks(t *testing.T) {
	for _, n := range []int{20, 4608} {
		m := &chunkMeter{chunks: map[int]int{}}
		if _, err := CalibrateNullThreshold(context.Background(), campaign.Engine{Workers: 2, Meter: m}, n, 0, synthNullTrial); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		if m.workers != 2 || len(m.chunks) != 2 || m.chunks[0] != n/2 || m.chunks[1] != n/2 {
			t.Fatalf("n=%d: pool %d, chunks %v; want 2 workers folding 2 chunks of %d", n, m.workers, m.chunks, n/2)
		}
		m.mu.Unlock()
	}
}

// The memory pin of the streamed calibration: a million null trials
// allocate under 64 KiB in total — per-worker scratch and the engine's
// bookkeeping, nothing per trial — where the materialized sample alone
// would take 8 MB.
func TestNoiseCalibrationFlatMemory(t *testing.T) {
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := CalibrateNullThreshold(ctx, campaign.Engine{Workers: 4, Seed: 2}, 1_000_000, 0, synthNullTrial); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("streamed calibration allocated %d B at 1M trials", got)
	if got > 64<<10 {
		t.Fatalf("streamed calibration allocated %d B at 1M trials, want < 64 KiB", got)
	}
}
