package testbench

import (
	"context"
	"errors"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
)

// nullMax is the streamed null-calibration accumulator: the trial
// count, the running maximum, and the lowest-index non-finite trial
// (bad < 0: none) with its value. Every field merges exactly — integer
// addition, a bit-exact max, the lower index — so the merged state is
// the same however the trials were grouped into chunks.
type nullMax struct {
	n    int
	max  float64
	bad  int
	badV float64
}

var nullMaxReducer = campaign.Reducer[float64, nullMax]{
	New: func() nullMax { return nullMax{max: math.Inf(-1), bad: -1} },
	Fold: func(acc nullMax, i int, v float64) nullMax {
		acc.n++
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			if acc.bad < 0 {
				acc.bad, acc.badV = i, v
			}
		case v > acc.max:
			acc.max = v
		}
		return acc
	},
	Merge: func(into, next nullMax) nullMax {
		into.n += next.n
		if into.bad < 0 {
			into.bad, into.badV = next.bad, next.badV
		}
		if next.max > into.max {
			into.max = next.max
		}
		return into
	},
}

// CalibrateNullThreshold fixes the acceptance threshold at the maximum
// of nullTrials noisy golden NDF measurements — the paper's noise
// experiment calibration — streaming the trials through the campaign
// pool. The result equals ndf.ThresholdFromNull(nulls, 1.0) on the
// materialized sample bit for bit, at any worker count: the reduction
// keeps only a count, the running max and the lowest-index non-finite
// trial, all merged exactly, so memory is O(workers) at any trial count.
// A NaN or ±Inf null NDF fails with ThresholdFromNull's error for the
// lowest such trial; a trial error (the lowest-index one, as
// campaign.Reduce reports it) takes precedence over non-finite values.
//
// Because the max does not depend on how trials are grouped, the
// calibration sizes its own chunks — DefaultChunk, or fewer trials so
// that every worker of the pool gets one — and ignores eng.Chunk, so a
// small calibration still spreads across the pool.
//
// sketchPrec must be 0; any other value is an error.
func CalibrateNullThreshold(ctx context.Context, eng campaign.Engine, nullTrials, sketchPrec int, trial func(i int, sc *core.TrialScratch) (float64, error)) (ndf.Decision, error) {
	if sketchPrec != 0 {
		return ndf.Decision{}, errors.New("testbench: sketch precision must be 0, the null calibration is exact")
	}
	if nullTrials <= 0 {
		return ndf.ThresholdFromNull(nil, 1.0)
	}
	workers := eng.PoolSize(nullTrials)
	eng.Chunk = min(campaign.DefaultChunk, (nullTrials+workers-1)/workers)
	acc, err := campaign.ReduceScratch(ctx, eng, nullTrials, nullMaxReducer, core.NewTrialScratch, trial)
	if err != nil {
		return ndf.Decision{}, err
	}
	if acc.bad >= 0 {
		return ndf.Decision{}, ndf.NonFiniteNullError(acc.bad, acc.n, acc.badV)
	}
	return ndf.Decision{Threshold: acc.max}, nil
}
