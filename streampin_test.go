package repro

import (
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/testbench"
)

// trivialTrial and sumRed isolate the engine overhead: with no trial
// work, the timing is dominated by what the engine itself does per trial
// (result-slot writes, atomic progress ticks, chunk bookkeeping).
func trivialTrial(i int) (float64, error) { return float64(i & 1), nil }

func sumRed() campaign.Reducer[float64, float64] {
	return campaign.Reducer[float64, float64]{
		Fold:  func(a float64, _ int, v float64) float64 { return a + v },
		Merge: func(a, b float64) float64 { return a + b },
	}
}

// TestReducePinnedThroughput pins the streaming engine's hot-path win
// over the materializing engine, in the style of the batched-signature
// and SPICE fast-path pins: on a million trivial trials, Reduce must be
// at least 1.5x faster than Run — it writes no result slots and ticks
// progress per chunk, not per trial. Measured headroom is ~4x, so the
// pin tolerates machine noise; best-of-three keeps it robust on loaded
// CI.
func TestReducePinnedThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing pin skipped in -short mode (race CI distorts timing)")
	}
	ctx := context.Background()
	const n = 1_000_000
	var opErr error
	best := 0.0
	for round := 0; round < 3 && best < 1.5; round++ {
		rr := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && opErr == nil; i++ {
				_, opErr = campaign.Reduce(ctx, campaign.Engine{Workers: 1}, n, sumRed(), trivialTrial)
			}
		})
		rn := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && opErr == nil; i++ {
				_, opErr = campaign.Run(ctx, campaign.Engine{Workers: 1}, n, trivialTrial)
			}
		})
		if opErr != nil {
			t.Fatal(opErr)
		}
		if ratio := float64(rn.NsPerOp()) / float64(rr.NsPerOp()); ratio > best {
			best = ratio
		}
	}
	t.Logf("Reduce is %.1fx the materializing Run on the trivial-trial hot path", best)
	if best < 1.5 {
		t.Fatalf("Reduce only %.2fx Run, pinned at >= 1.5x", best)
	}
}

// TestCheckpointOverheadPinned pins the durable fabric's checkpoint tax:
// at the default cadence (one serialized accumulator every 65536
// trials), a span reduction with a checkpoint sink must cost less than
// 5% over the same reduction with no sink — the knob that makes
// durability free enough to leave on for every sharded campaign.
// Trivial trials are the worst case for the pin: any real campaign's
// per-trial work only shrinks the relative overhead. Best-of-three
// against machine noise, in the TestReducePinnedThroughput style.
func TestCheckpointOverheadPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("timing pin skipped in -short mode (race CI distorts timing)")
	}
	ctx := context.Background()
	span := campaign.Span{Lo: 0, Hi: 1_000_000}
	sink := func(acc float64, through int) error {
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(acc))
		binary.LittleEndian.PutUint64(buf[8:], uint64(through))
		return nil
	}
	var opErr error
	best := math.Inf(1)
	for round := 0; round < 3 && best >= 1.05; round++ {
		off := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && opErr == nil; i++ {
				_, opErr = campaign.ReduceSpan(ctx, campaign.Engine{Workers: 1}, span, nil, nil, sumRed(), trivialTrial)
			}
		})
		on := testing.Benchmark(func(b *testing.B) {
			e := campaign.Engine{Workers: 1, Checkpoint: campaign.DefaultCheckpoint}
			for i := 0; i < b.N && opErr == nil; i++ {
				_, opErr = campaign.ReduceSpan(ctx, e, span, nil, sink, sumRed(), trivialTrial)
			}
		})
		if opErr != nil {
			t.Fatal(opErr)
		}
		if ratio := float64(on.NsPerOp()) / float64(off.NsPerOp()); ratio < best {
			best = ratio
		}
	}
	t.Logf("checkpointing at the default cadence costs %.2f%% over the bare span reduction", (best-1)*100)
	if best >= 1.05 {
		t.Fatalf("checkpoint overhead %.1f%% at the default cadence, pinned at < 5%%", (best-1)*100)
	}
}

// TestYieldCampaignFlatHeap runs the full yield campaign — spec decode,
// registry dispatch, streaming reduction, Wilson intervals — to
// completion at 10k and at 40k dies and requires the peak live heap to
// stay flat: the pre-refactor implementation held an O(n) stream
// pre-pass plus O(n) verdict slots for the whole run, which grows by
// megabytes over this span; the streamed campaign retains only
// accumulators. (The 10k-vs-1M version of this measurement runs on the
// engine itself in campaign.TestReduceFlatMemoryAt10kVs1M, where trials
// are free; here every die pays for a real signature extraction, so the
// span is chosen to keep the suite fast. A true 1M-die spec is
// exercised end-to-end, with cancellation, by the testbench and serve
// cancellation tests.) The reduced scan resolution only cheapens the
// per-die physics; the campaign plumbing is exactly the production
// path.
func TestYieldCampaignFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign skipped in -short mode")
	}
	peakLive := func(n int) uint64 {
		sys := core.Default()
		sys.ScanN = 64
		thr := 0.03
		var mu sync.Mutex
		var peak uint64
		_, err := testbench.Run(context.Background(), testbench.Spec{
			Campaign: "yield",
			Seed:     1,
			Params:   testbench.YieldParams{N: n, ComponentSigma: 0.02, Tol: 0.05, Threshold: &thr},
		},
			testbench.WithSystem(sys),
			testbench.WithProgress(func(done, total int) {
				// Chunk-granular: a dozen samples per run. GC first so the
				// reading is live heap, not garbage awaiting collection.
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				mu.Unlock()
			}))
		if err != nil {
			t.Fatal(err)
		}
		return peak
	}
	small := peakLive(10_000)
	big := peakLive(40_000)
	t.Logf("peak live heap: %d B at 10k dies, %d B at 40k dies", small, big)
	if big > small+4<<20 {
		t.Fatalf("peak heap grew %d B over 4x the dies — campaign memory scales with trials", big-small)
	}
}

// NOISE-CALIB-1M: the streamed null calibration at a million synthetic
// trials — one exact running max over the reduction engine, with chunks
// sized to the pool. The allocation column is the O(workers) story:
// nothing is kept per trial, pinned under 64 KiB by
// testbench.TestNoiseCalibrationFlatMemory.
func BenchmarkNoiseNullCalibration(b *testing.B) {
	ctx := context.Background()
	trial := func(i int, _ *core.TrialScratch) (float64, error) {
		return 0.01 + float64(i%9973)*1.3e-5, nil
	}
	b.ReportAllocs()
	var thr float64
	for i := 0; i < b.N; i++ {
		dec, err := testbench.CalibrateNullThreshold(ctx, campaign.Engine{Workers: 4, Seed: 2}, 1_000_000, 0, trial)
		if err != nil {
			b.Fatal(err)
		}
		thr = dec.Threshold
	}
	b.ReportMetric(thr, "threshold")
}
