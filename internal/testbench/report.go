package testbench

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/monitor"
)

// reportPrinter latches the first write error so every report line can
// print without per-call error plumbing; WriteReport returns the latched
// error, so a truncated report (full disk, closed pipe) is never
// silently reported as success.
type reportPrinter struct {
	w   io.Writer
	err error
}

func (rp *reportPrinter) printf(format string, args ...any) {
	if rp.err == nil {
		_, rp.err = fmt.Fprintf(rp.w, format, args...)
	}
}

// WriteReport runs the complete experiment suite against sys — each
// experiment a registered campaign run through Run — and writes the
// paper-vs-measured summary (the data behind EXPERIMENTS.md) to w.
// All experiments are deterministic; runtime is a few seconds.
// Cancelling ctx aborts the experiment in flight.
func WriteReport(ctx context.Context, w io.Writer, sys *core.System) error {
	rp := &reportPrinter{w: w}
	rp.printf("=== Reproduction report: Analog Circuit Test Based on a Digital Signature (DATE 2010) ===\n\n")
	on := WithSystem(sys)

	// Fig. 1
	f1, err := runAs[Fig1](ctx, Spec{Campaign: "fig1", Params: Fig1Params{Shift: 0.10, Points: 512}}, on)
	if err != nil {
		return err
	}
	worst := 0.0
	for i := range f1.Golden {
		d := math.Hypot(f1.Golden[i].X-f1.Defective[i].X, f1.Golden[i].Y-f1.Defective[i].Y)
		if d > worst {
			worst = d
		}
	}
	rp.printf("FIG1  Lissajous +10%% f0: max pointwise deviation %.4f V (visible, bounded)\n", worst)

	// Table I / Fig. 4
	f4, err := runAs[Fig4](ctx, Spec{Campaign: "fig4", Params: Fig4Params{Points: 41}})
	if err != nil {
		return err
	}
	tot := 0
	for _, c := range f4.Curves {
		tot += len(c)
	}
	rp.printf("TAB1  six monitor configurations valid; FIG4 traced %d boundary points across 6 curves\n", tot)

	env, err := runAs[Fig4MC](ctx, Spec{Campaign: "fig4mc", Seed: 7, Params: Fig4MCParams{Monitor: 2, Dies: 200, Cols: 21}})
	if err != nil {
		return err
	}
	rp.printf("FIG4  Monte Carlo: nominal boundary inside 95%% envelope at %.0f%% of columns (paper: measured in MC range)\n",
		100*env.NominalInsideEnvelope())

	// Fig. 6
	f6, err := runAs[Fig6](ctx, Spec{Campaign: "fig6", Params: Fig6Params{Shift: 0.10, Grid: 141}}, on)
	if err != nil {
		return err
	}
	rp.printf("FIG6  partition: %d zones (paper labels 16), %d Gray violations at boundary intersections\n",
		f6.NumZones, f6.Violations)

	// Fig. 7
	f7, err := runAs[Fig7](ctx, Spec{Campaign: "fig7", Params: Fig7Params{Shift: 0.10, Points: 400}}, on)
	if err != nil {
		return err
	}
	maxH := 0
	for _, h := range f7.Hamming {
		if h > maxH {
			maxH = h
		}
	}
	rp.printf("FIG7  NDF(+10%%) = %.4f (paper: 0.1021); max Hamming distance %d (paper: 2)\n", f7.NDF, maxH)

	// Fig. 8
	f8, err := runAs[Fig8](ctx, Spec{Campaign: "fig8", Params: Fig8Params{MaxDev: 0.20, Points: 17, Tol: 0.05}}, on)
	if err != nil {
		return err
	}
	rp.printf("FIG8  NDF sweep ±20%%: NDF(-20%%)=%.3f NDF(+20%%)=%.3f threshold(±5%%)=%.4f\n",
		f8.NDFs[0], f8.NDFs[len(f8.NDFs)-1], f8.Threshold)

	// Noise
	nd, err := runAs[Noise](ctx, Spec{Campaign: "noise", Seed: 2024, Params: NoiseParams{
		Sigma: 0.005, Devs: []float64{0.005, 0.01, 0.02}, NullTrials: 20, Trials: 20,
	}}, on)
	if err != nil {
		return err
	}
	rp.printf("NOISE 3σ=0.015 V: detect 0.5%%:%.2f  1%%:%.2f  2%%:%.2f  (false-alarm %.2f; paper: 1%% detectable)\n",
		nd.Detect[0], nd.Detect[1], nd.Detect[2], nd.FalseRate)

	// Ablations
	al, err := runAs[AblLinear](ctx, Spec{Campaign: "linear", Params: LinearParams{Devs: []float64{-0.10, 0.10}}}, on)
	if err != nil {
		return err
	}
	rp.printf("ABL   linear zoning: area ratio %.2fx, NDF(+10%%) linear %.3f vs nonlinear %.3f\n",
		al.LinearUm2/al.NonlinearUm2, al.LinearNDF[1], al.NonlinearNDF[1])

	ac, err := runAs[AblCounter](ctx, Spec{Campaign: "counter", Params: CounterParams{
		Shift: 0.10, Bits: []int{8, 12, 16}, Clocks: []float64{1e6, 10e6, 100e6},
	}}, on)
	if err != nil {
		return err
	}
	worstQ := 0.0
	for _, row := range ac.AbsErr {
		for _, e := range row {
			if e > worstQ {
				worstQ = e
			}
		}
	}
	rp.printf("ABL   capture quantization: worst |ΔNDF| %.4f across {8,12,16}b x {1,10,100}MHz\n", worstQ)

	ar, err := runAs[AblRegression](ctx, Spec{Campaign: "regress", Params: RegressParams{
		TrainDevs: defaultTrainDevs(), TestDevs: defaultTestDevs(),
	}}, on)
	if err != nil {
		return err
	}
	rp.printf("ABL   alternate-test regression: held-out RMSE %.5f (fractional f0)\n", ar.TestRMSE)

	// Extensions
	eq, err := runAs[ExtQ](ctx, Spec{Campaign: "q", Params: QParams{Devs: []float64{0.20}}}, on)
	if err != nil {
		return err
	}
	rp.printf("EXT   Q+20%%: NDF LP-observed %.4f, BP-observed %.4f\n", eq.LPNDF[0], eq.BPNDF[0])

	ft, err := runAs[FaultTable](ctx, Spec{Campaign: "faults", Params: FaultsParams{Tol: 0.05}}, on)
	if err != nil {
		return err
	}
	rp.printf("EXT   component fault campaign: %.0f%% coverage (%d faults)\n",
		100*ft.Coverage(), len(ft.Cases))

	// Area
	est := monitor.EstimateArea(monitor.TableI()[0])
	rp.printf("AREA  monitor core %.2f um2, total %.2f um2 (published 53.54 / 116.1)\n",
		est.CoreUm2, est.TotalUm2)
	return rp.err
}
