package testbench

import (
	"context"
	"fmt"

	"repro/internal/biquad"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
)

// This file is the campaign registry's catalogue: every experiment driver
// of the package registered under a stable name with a typed,
// JSON-serializable params struct. The registry is the single campaign
// surface — Run, the CLI flags (mcmon -list, xyzone -ext/-abl), and the
// mcserved HTTP service all resolve through it, so adding a campaign
// here makes it scriptable, servable and discoverable at once.
//
// Params structs carry their defaults as field values; a spec overrides
// only the fields it names. Common knobs (backend, seed, workers, chunk,
// checkpoint) live on the Spec itself, not in params.

// Fig1Params configures the "fig1" campaign.
type Fig1Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Validate bounds the trace resolution.
func (p *Fig1Params) Validate() error { return validateSize("points", p.Points, MaxPoints) }

// Fig4Params configures the "fig4" campaign.
type Fig4Params struct {
	Points int `json:"points"`
}

// Validate bounds the trace resolution.
func (p *Fig4Params) Validate() error { return validateSize("points", p.Points, MaxPoints) }

// Fig4SpiceParams configures the "fig4spice" campaign.
type Fig4SpiceParams struct {
	Cols int `json:"cols"`
}

// Validate bounds the column count.
func (p *Fig4SpiceParams) Validate() error { return validateSize("cols", p.Cols, MaxPoints) }

// Fig4MCParams configures the "fig4mc" campaign. Monitor is the 0-based
// Table I index.
type Fig4MCParams struct {
	Monitor int `json:"monitor"`
	Dies    int `json:"dies"`
	Cols    int `json:"cols"`
}

// Validate bounds the die and column counts.
func (p *Fig4MCParams) Validate() error {
	if err := validateTrials("dies", p.Dies); err != nil {
		return err
	}
	return validateSize("cols", p.Cols, MaxPoints)
}

// Fig6Params configures the "fig6" campaign.
type Fig6Params struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// Validate bounds the zone-map grid side.
func (p *Fig6Params) Validate() error { return validateSize("grid", p.Grid, MaxGridSide) }

// Fig7Params configures the "fig7" campaign.
type Fig7Params struct {
	Shift  float64 `json:"shift"`
	Points int     `json:"points"`
}

// Validate bounds the chronogram resolution.
func (p *Fig7Params) Validate() error { return validateSize("points", p.Points, MaxPoints) }

// Fig8Params configures the "fig8" campaign.
type Fig8Params struct {
	MaxDev float64 `json:"max_dev"`
	Points int     `json:"points"`
	Tol    float64 `json:"tol"`
}

// Validate bounds the sweep resolution.
func (p *Fig8Params) Validate() error { return validateSize("points", p.Points, MaxPoints) }

// NoiseParams configures the "noise" campaign.
type NoiseParams struct {
	Sigma      float64   `json:"sigma"`
	Devs       []float64 `json:"devs"`
	NullTrials int       `json:"null_trials"`
	Trials     int       `json:"trials"`
}

// Validate bounds the noise campaign's trial knobs.
func (p *NoiseParams) Validate() error {
	if err := validateTrials("trials", p.Trials); err != nil {
		return err
	}
	if err := validateTrials("null_trials", p.NullTrials); err != nil {
		return err
	}
	if p.Sigma < 0 {
		return fmt.Errorf("negative sigma %v", p.Sigma)
	}
	return nil
}

// NoiseSweepParams configures the "noisesweep" campaign.
type NoiseSweepParams struct {
	Sigmas  []float64 `json:"sigmas"`
	DevGrid []float64 `json:"dev_grid"`
	Trials  int       `json:"trials"`
}

// Validate bounds the sweep's per-point trial count.
func (p *NoiseSweepParams) Validate() error {
	return validateTrials("trials", p.Trials)
}

// FaultsParams configures the "faults" campaign. A nil Threshold
// calibrates one from Tol first (Fig. 8 band construction); an empty
// fault list runs DefaultFaultSet.
type FaultsParams struct {
	Threshold *float64       `json:"threshold,omitempty"`
	Tol       float64        `json:"tol"`
	Faults    []biquad.Fault `json:"faults,omitempty"`
}

// YieldParams configures the "yield" campaign. A nil Threshold
// calibrates one at the multi-parameter spec corners first. N is the
// die count — the streaming reduction keeps memory flat, so production
// runs of 10M+ dies validate and execute with O(workers) heap.
type YieldParams struct {
	N              int      `json:"n"`
	ComponentSigma float64  `json:"component_sigma"`
	Tol            float64  `json:"tol"`
	Threshold      *float64 `json:"threshold,omitempty"`
}

// Validate bounds the die count to (0, MaxTrials].
func (p *YieldParams) Validate() error {
	return validateTrials("n", p.N)
}

// validateTrials is the shared trial-count bound: positive, at most
// MaxTrials.
func validateTrials(name string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s = %d, need at least 1 trial", name, n)
	}
	if n > MaxTrials {
		return fmt.Errorf("%s = %d exceeds the %d-trial bound", name, n, MaxTrials)
	}
	return nil
}

// validateSize is the shared size-knob bound: non-negative, at most max
// (MaxPoints or MaxGridSide). Zero stays legal — the campaigns that
// cannot use it clamp or reject it themselves.
func validateSize(name string, n, max int) error {
	if n < 0 {
		return fmt.Errorf("negative %s %d", name, n)
	}
	if n > max {
		return fmt.Errorf("%s = %d exceeds the %d bound", name, n, max)
	}
	return nil
}

// SelfTestParams configures the "selftest" campaign. A nil Threshold
// calibrates one from Tol first.
type SelfTestParams struct {
	Threshold *float64 `json:"threshold,omitempty"`
	Tol       float64  `json:"tol"`
}

// TempParams configures the "temp" campaign.
type TempParams struct {
	TempsK []float64 `json:"temps_k"`
}

// SpectralParams configures the "spectral" campaign.
type SpectralParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// RegressParams configures the "regress" campaign.
type RegressParams struct {
	TrainDevs []float64 `json:"train_devs"`
	TestDevs  []float64 `json:"test_devs"`
}

// MetricParams configures the "metric" campaign.
type MetricParams struct {
	Devs []float64 `json:"devs"`
}

// CounterParams configures the "counter" campaign.
type CounterParams struct {
	Shift  float64   `json:"shift"`
	Bits   []int     `json:"bits"`
	Clocks []float64 `json:"clocks"`
}

// Validate bounds the ablation grid: at most MaxPoints (bits, clock)
// cells, counter widths in [1, 32], and positive clocks of at most
// MaxCaptureTicks ticks per period of the paper's stimulus.
func (p *CounterParams) Validate() error {
	if n := len(p.Bits) * len(p.Clocks); n > MaxPoints {
		return fmt.Errorf("%d bits × clocks cells exceed the %d bound", n, MaxPoints)
	}
	for _, m := range p.Bits {
		if m < 1 || m > 32 {
			return fmt.Errorf("counter bits %d out of [1, 32]", m)
		}
	}
	T := core.Default().Period()
	for _, f := range p.Clocks {
		if !(f > 0) || f*T > MaxCaptureTicks {
			return fmt.Errorf("clock %g Hz: need a positive clock of at most %d ticks per %g s period", f, MaxCaptureTicks, T)
		}
	}
	return nil
}

// LinearParams configures the "linear" campaign.
type LinearParams struct {
	Devs []float64 `json:"devs"`
}

// QParams configures the "q" campaign.
type QParams struct {
	Devs []float64 `json:"devs"`
}

// StimOptParams configures the "stimopt" campaign.
type StimOptParams struct {
	Shift float64 `json:"shift"`
	Grid  int     `json:"grid"`
}

// Validate bounds the phase-grid side.
func (p *StimOptParams) Validate() error { return validateSize("grid", p.Grid, MaxGridSide) }

// BackendsParams configures the "backends" campaign.
type BackendsParams struct {
	Shifts []float64 `json:"shifts"`
}

// Table1Params configures the "table1" campaign (no knobs).
type Table1Params struct{}

// CornersParams configures the "corners" campaign (no knobs).
type CornersParams struct{}

// decision resolves the acceptance threshold shared by the fault-shaped
// campaigns: an explicit threshold wins (even zero — "everything moves
// fails"); otherwise a Fig. 8 tolerance calibration runs on the
// campaign's engine.
func decision(ctx context.Context, ev *Env, threshold *float64, tol float64) (ndf.Decision, error) {
	if threshold != nil {
		return ndf.Decision{Threshold: *threshold}, nil
	}
	sys, err := ev.System()
	if err != nil {
		return ndf.Decision{}, err
	}
	return sys.CalibrateFromTolerance(ctx, tol, 9, ev.Engine())
}

func init() {
	register("fig1", "Lissajous traces of the golden and f0-shifted CUT (Fig. 1)",
		Fig1Params{Shift: 0.10, Points: 512},
		func(ctx context.Context, ev *Env, p *Fig1Params) (*Fig1, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig1(sys, p.Shift, p.Points)
		})

	register("table1", "the six published monitor input configurations (Table I)",
		Table1Params{},
		func(ctx context.Context, ev *Env, p *Table1Params) (*Table1, error) {
			return &Table1{Configs: monitor.TableI()}, nil
		})

	register("fig4", "Table I boundary control curves from the analytic monitor model (Fig. 4)",
		Fig4Params{Points: 41},
		func(ctx context.Context, ev *Env, p *Fig4Params) (*Fig4, error) {
			return runFig4(ctx, p.Points)
		})

	register("fig4spice", "Table I boundaries re-traced at transistor level by the MNA solver (Fig. 4 cross-check)",
		Fig4SpiceParams{Cols: 21},
		func(ctx context.Context, ev *Env, p *Fig4SpiceParams) (*Fig4, error) {
			return runFig4Spice(ctx, p.Cols)
		})

	register("fig4mc", "Monte-Carlo process/mismatch envelope of one Table I boundary (Fig. 4 MC validation)",
		Fig4MCParams{Monitor: 2, Dies: 200, Cols: 21},
		func(ctx context.Context, ev *Env, p *Fig4MCParams) (*Fig4MC, error) {
			return runFig4MC(ctx, p.Monitor, p.Dies, p.Cols, ev.Seed(), ev.Engine())
		})

	register("fig6", "zone codification map and golden/deviated traversal sequences (Fig. 6)",
		Fig6Params{Shift: 0.10, Grid: 101},
		func(ctx context.Context, ev *Env, p *Fig6Params) (*Fig6, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig6(sys, p.Shift, p.Grid)
		})

	register("fig7", "decimal-coded signature chronograms, Hamming trace and NDF (Fig. 7)",
		Fig7Params{Shift: 0.10, Points: 400},
		func(ctx context.Context, ev *Env, p *Fig7Params) (*Fig7, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig7(sys, p.Shift, p.Points)
		})

	register("fig8", "NDF vs f0 deviation sweep with PASS/FAIL calibration (Fig. 8)",
		Fig8Params{MaxDev: 0.20, Points: 17, Tol: 0.05},
		func(ctx context.Context, ev *Env, p *Fig8Params) (*Fig8, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runFig8(ctx, sys, p.MaxDev, p.Points, p.Tol, ev.Engine())
		})

	register("noise", "noisy detection-rate experiment behind the paper's 1% claim",
		NoiseParams{Sigma: 0.005, Devs: []float64{0.005, 0.01, 0.02, 0.05}, NullTrials: 20, Trials: 20},
		func(ctx context.Context, ev *Env, p *NoiseParams) (*Noise, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runNoiseDetection(ctx, sys, p.Sigma, p.Devs, p.NullTrials, p.Trials, ev.Seed(), ev.Engine())
		})

	register("noisesweep", "minimum detectable deviation as a function of noise sigma",
		NoiseSweepParams{Sigmas: []float64{0.002, 0.005, 0.01, 0.02}, DevGrid: []float64{0.005, 0.01, 0.02, 0.05, 0.10}, Trials: 10},
		func(ctx context.Context, ev *Env, p *NoiseSweepParams) (*NoiseSweep, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runNoiseSweep(ctx, sys, p.Sigmas, p.DevGrid, p.Trials, ev.Seed(), ev.Engine())
		})

	register("faults", "component-level fault campaign (parametric drifts, opens, shorts)",
		FaultsParams{Tol: 0.05},
		func(ctx context.Context, ev *Env, p *FaultsParams) (*FaultTable, error) {
			dec, err := decision(ctx, ev, p.Threshold, p.Tol)
			if err != nil {
				return nil, err
			}
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			faults := p.Faults
			if len(faults) == 0 {
				faults = DefaultFaultSet()
			}
			return runFaultTable(ctx, sys, dec, faults, ev.Engine())
		})

	register("yield", "production-flow yield/escape/overkill simulation over component tolerances",
		YieldParams{N: 400, ComponentSigma: 0.02, Tol: 0.05},
		func(ctx context.Context, ev *Env, p *YieldParams) (*Yield, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			var dec ndf.Decision
			if p.Threshold != nil {
				dec.Threshold = *p.Threshold
			} else if dec, err = calibrateMultiParam(ctx, sys, p.Tol); err != nil {
				return nil, err
			}
			return runYield(ctx, sys, dec, p.N, p.ComponentSigma, p.Tol, ev.Engine())
		})

	register("selftest", "monitor-BIST stuck-at campaign: the bank screens itself",
		SelfTestParams{Tol: 0.05},
		func(ctx context.Context, ev *Env, p *SelfTestParams) (*SelfTest, error) {
			dec, err := decision(ctx, ev, p.Threshold, p.Tol)
			if err != nil {
				return nil, err
			}
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runSelfTest(ctx, sys, dec)
		})

	register("corners", "spurious golden-CUT NDF at the five foundry sign-off corners",
		CornersParams{},
		func(ctx context.Context, ev *Env, p *CornersParams) (*CornerDrift, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runCornerDrift(ctx, sys)
		})

	register("temp", "spurious golden-CUT NDF vs monitor junction temperature",
		TempParams{TempsK: []float64{233, 273, 300, 323, 358, 398}},
		func(ctx context.Context, ev *Env, p *TempParams) (*TempDrift, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runTempDrift(ctx, sys, p.TempsK)
		})

	register("spectral", "alternate-test features: signature dwell vs Goertzel spectral regression",
		SpectralParams{TrainDevs: defaultTrainDevs(), TestDevs: defaultTestDevs()},
		func(ctx context.Context, ev *Env, p *SpectralParams) (*AblSpectral, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblSpectral(ctx, sys, p.TrainDevs, p.TestDevs)
		})

	register("regress", "alternate-test regression of f0 deviation from dwell features",
		RegressParams{TrainDevs: defaultTrainDevs(), TestDevs: defaultTestDevs()},
		func(ctx context.Context, ev *Env, p *RegressParams) (*AblRegression, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblRegression(ctx, sys, p.TrainDevs, p.TestDevs)
		})

	register("metric", "metric ablation: time-weighted NDF vs sequence edit distance",
		MetricParams{Devs: []float64{-0.10, -0.05, -0.02, -0.005, 0.005, 0.02, 0.05, 0.10}},
		func(ctx context.Context, ev *Env, p *MetricParams) (*AblMetric, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblMetric(ctx, sys, p.Devs)
		})

	register("counter", "capture quantization ablation across counter widths and clock rates",
		CounterParams{Shift: 0.10, Bits: []int{8, 12, 16}, Clocks: []float64{1e6, 10e6, 100e6}},
		func(ctx context.Context, ev *Env, p *CounterParams) (*AblCounter, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblCounter(ctx, sys, p.Shift, p.Bits, p.Clocks)
		})

	register("linear", "zoning ablation: nonlinear Table I bank vs straight-line baseline",
		LinearParams{Devs: []float64{-0.15, -0.10, -0.05, -0.02, 0.02, 0.05, 0.10, 0.15}},
		func(ctx context.Context, ev *Env, p *LinearParams) (*AblLinear, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runAblLinear(ctx, sys, p.Devs, ev.Engine())
		})

	register("q", "Q-verification extension: NDF vs Q deviation, LP- and BP-observed",
		QParams{Devs: []float64{-0.40, -0.20, -0.10, 0.10, 0.20, 0.40}},
		func(ctx context.Context, ev *Env, p *QParams) (*ExtQ, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runExtQ(ctx, sys, p.Devs)
		})

	register("stimopt", "stimulus phase optimization maximizing NDF response",
		StimOptParams{Shift: 0.05, Grid: 6},
		func(ctx context.Context, ev *Env, p *StimOptParams) (*StimOpt, error) {
			sys, err := ev.System()
			if err != nil {
				return nil, err
			}
			return runStimOpt(ctx, sys, p.Shift, p.Grid)
		})

	register("backends", "SPICE-vs-analytic cross-validation sweep (builds both systems itself)",
		BackendsParams{Shifts: []float64{-0.10, -0.05, 0.05, 0.10}},
		func(ctx context.Context, ev *Env, p *BackendsParams) (*BackendAgreement, error) {
			return runBackendAgreement(ctx, p.Shifts, ev.Engine())
		})
}

// defaultTrainDevs is the regression campaigns' shared training grid.
func defaultTrainDevs() []float64 {
	return []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}
}

// defaultTestDevs is the regression campaigns' shared held-out grid.
func defaultTestDevs() []float64 {
	return []float64{-0.12, -0.04, 0.07, 0.12}
}
