package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/stat"
)

// Yield is a production-flow simulation: a population of CUTs with
// Gaussian component tolerances goes through the signature test, and the
// decision is scored against the true specification. This turns the
// paper's method into the numbers a test engineer actually signs off on:
// yield, defect level (escapes) and overkill — each with a 95% Wilson
// score interval, so a spec that asks for more trials visibly tightens
// the estimate.
//
// The specification covers all three behavioural parameters — |Δf0| ≤
// tol, |ΔQ| ≤ 2·tol, |Δgain| ≤ tol — because the NDF is a functional
// discrepancy measure: component drifts that move Q or gain while
// leaving f0 in band still deform the Lissajous trace and are rejected,
// which against an f0-only spec would be misread as overkill.
type Yield struct {
	N              int
	ComponentSigma float64 // relative 1σ of each component
	Tolerance      float64 // spec half-band on f0 and gain; 2x on Q
	Threshold      float64
	TrueGood       int // circuits meeting spec
	PassCount      int
	Escapes        int // defective circuits that passed (test escapes)
	Overkill       int // good circuits that failed (yield loss)
	// YieldLo/YieldHi bound the pass rate with a 95% Wilson score
	// interval; DefectLo/DefectHi bound the defect level (escapes over
	// shipped parts) the same way.
	YieldLo, YieldHi   float64
	DefectLo, DefectHi float64
}

// CalibrateMultiParam places the acceptance threshold at the worst NDF
// over the eight simultaneous spec corners (±tol on f0 and gain, ±2·tol
// on Q). Calibrating on single-parameter sweeps (Fig. 8) under-budgets
// multi-parameter in-spec drift and shows up as overkill; corner
// calibration is how a production deployment sets the band. The "yield"
// campaign calibrates through calibrateMultiParam on its own ctx; this
// ctx-less form exists only because the perfbench module calls it.
func CalibrateMultiParam(sys *core.System, tol float64) (ndf.Decision, error) {
	return calibrateMultiParam(context.TODO(), sys, tol) //mclint:ctxflow kept ctx-less only for the perfbench module, which calls it; delete once perfbench does not
}

// calibrateMultiParam is CalibrateMultiParam with cancellation checked
// between corners.
func calibrateMultiParam(ctx context.Context, sys *core.System, tol float64) (ndf.Decision, error) {
	worst := 0.0
	for _, sf := range []float64{-1, 1} {
		for _, sq := range []float64{-1, 1} {
			for _, sg := range []float64{-1, 1} {
				if err := ctx.Err(); err != nil {
					return ndf.Decision{}, err
				}
				v, err := sys.NDFOfDeviation(core.Deviation{
					F0Shift:   sf * tol,
					QShift:    sq * 2 * tol,
					GainShift: sg * tol,
				})
				if err != nil {
					return ndf.Decision{}, err
				}
				if v > worst {
					worst = v
				}
			}
		}
	}
	return ndf.Decision{Threshold: worst}, nil
}

// yieldCounts is the per-chunk accumulator of the yield reduction: four
// integers, merged by exact addition — so the streamed scores match the
// materialized ones bit for bit at any chunk size and worker count.
type yieldCounts struct {
	trueGood, pass, escapes, overkill int
}

// foldVerdict scores one die into the accumulator.
func (c yieldCounts) foldVerdict(truthGood, pass bool) yieldCounts {
	if truthGood {
		c.trueGood++
	}
	if pass {
		c.pass++
	}
	switch {
	case pass && !truthGood:
		c.escapes++
	case !pass && truthGood:
		c.overkill++
	}
	return c
}

// yieldVerdict is one die's scored outcome: whether the circuit truly
// meets the spec and whether the test passed it.
type yieldVerdict struct{ truthGood, pass bool }

// yieldTrial builds the per-die trial function of the yield campaign.
// Each die derives its private random stream inside the worker as a
// pure function of (seed, die index) via Engine.Stream — there is no
// O(n) serial stream pre-pass — so any contiguous die range (a resumed
// checkpoint suffix, a leased shard) replays the exact draws of the
// full-range run. The golden signature is materialized here, before
// fan-out, so the sync.Once does not serialize the workers.
func yieldTrial(sys *core.System, dec ndf.Decision, componentSigma, tol float64, eng campaign.Engine) (func(i int, sc *core.TrialScratch) (yieldVerdict, error), error) {
	if _, err := sys.GoldenSignature(); err != nil {
		return nil, err
	}
	golden := sys.Golden()
	return func(i int, sc *core.TrialScratch) (yieldVerdict, error) {
		s := eng.Stream(i)
		// Per-die component tolerances, injected at realization level
		// through the backend (the draw order is part of the
		// bit-reproducibility contract).
		cut, err := sys.Deviated(core.Deviation{
			RDrift:  s.Gauss(0, componentSigma),
			RQDrift: s.Gauss(0, componentSigma),
			RGDrift: s.Gauss(0, componentSigma),
			CDrift:  s.Gauss(0, componentSigma),
		})
		if err != nil {
			return yieldVerdict{}, err
		}
		p := cut.Params()
		inBand := func(val, nom, frac float64) bool {
			return val >= nom*(1-frac) && val <= nom*(1+frac)
		}
		truthGood := inBand(p.F0, golden.F0, tol) &&
			inBand(p.Q, golden.Q, 2*tol) &&
			inBand(p.Gain, golden.Gain, tol)
		v, err := sys.NDFOfScratch(cut, sc)
		if err != nil {
			return yieldVerdict{}, err
		}
		return yieldVerdict{truthGood: truthGood, pass: dec.Pass(v)}, nil
	}, nil
}

// finalizeYield scores the full-campaign counts into the published
// payload with its Wilson intervals — shared by the in-process run and
// the fabric's merge-on-complete path.
func finalizeYield(counts yieldCounts, n int, componentSigma, tol, threshold float64) *Yield {
	out := &Yield{
		N: n, ComponentSigma: componentSigma, Tolerance: tol, Threshold: threshold,
		TrueGood: counts.trueGood, PassCount: counts.pass,
		Escapes: counts.escapes, Overkill: counts.overkill,
	}
	out.YieldLo, out.YieldHi = stat.Wilson(out.PassCount, out.N, 0.95)
	if out.PassCount > 0 {
		out.DefectLo, out.DefectHi = stat.Wilson(out.Escapes, out.PassCount, 0.95)
	}
	return out
}

// runYield draws n CUTs with component sigma, tests each against the
// decision, and scores against the spec (campaign "yield"). The dies
// stream through the checkpointable reduction over the full die range,
// so peak memory is O(workers + chunk) whatever n is and the scores are
// bit-identical at any worker count.
func runYield(ctx context.Context, sys *core.System, dec ndf.Decision, n int, componentSigma, tol float64, eng campaign.Engine) (*Yield, error) {
	trial, err := yieldTrial(sys, dec, componentSigma, tol, eng)
	if err != nil {
		return nil, err
	}
	counts, err := campaign.ReduceScratch(ctx, eng, n, yieldReducer().Reducer, core.NewTrialScratch, trial)
	if err != nil {
		return nil, err
	}
	return finalizeYield(counts, n, componentSigma, tol, dec.Threshold), nil
}

// YieldRate returns the fraction of circuits passing the test.
func (y *Yield) YieldRate() float64 { return float64(y.PassCount) / float64(y.N) }

// DefectLevel returns the fraction of shipped (passing) circuits that
// violate the spec — the classic DPM numerator.
func (y *Yield) DefectLevel() float64 {
	if y.PassCount == 0 {
		return 0
	}
	return float64(y.Escapes) / float64(y.PassCount)
}

// OverkillRate returns the fraction of truly good circuits rejected.
func (y *Yield) OverkillRate() float64 {
	if y.TrueGood == 0 {
		return 0
	}
	return float64(y.Overkill) / float64(y.TrueGood)
}

// Render prints the production summary.
func (y *Yield) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "production yield simulation: %d CUTs, component σ %.1f%%, spec |Δf0| ≤ %.0f%%, threshold %.4f\n",
		y.N, y.ComponentSigma*100, y.Tolerance*100, y.Threshold)
	fmt.Fprintf(&b, "  true good:    %d (%.1f%%)\n", y.TrueGood, 100*float64(y.TrueGood)/float64(y.N))
	fmt.Fprintf(&b, "  test yield:   %.1f%% (95%% CI %.1f%%–%.1f%%)\n", 100*y.YieldRate(), 100*y.YieldLo, 100*y.YieldHi)
	fmt.Fprintf(&b, "  escapes:      %d (defect level %.2f%% of shipped, 95%% CI %.2f%%–%.2f%%)\n",
		y.Escapes, 100*y.DefectLevel(), 100*y.DefectLo, 100*y.DefectHi)
	fmt.Fprintf(&b, "  overkill:     %d (%.2f%% of good circuits)\n", y.Overkill, 100*y.OverkillRate())
	return b.String()
}
