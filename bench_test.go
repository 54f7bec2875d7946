// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md §4 for the index).
// Each benchmark regenerates its artifact end to end and reports the
// headline quantity through b.ReportMetric so `go test -bench=.` prints
// the paper-vs-measured comparison alongside timing.
package repro

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/spice"
	"repro/internal/testbench"
	"repro/internal/wave"
	"repro/internal/zone"
)

// runAs runs a spec through testbench.Run and returns its typed payload.
func runAs[R any](spec testbench.Spec, opts ...testbench.Option) (*R, error) {
	res, err := testbench.Run(context.Background(), spec, opts...)
	if err != nil {
		return nil, err
	}
	return res.Payload.(*R), nil
}

// FIG1: Lissajous composition, nominal vs +10% f0 (Fig. 1).
func BenchmarkFig1Lissajous(b *testing.B) {
	sys := core.Default()
	var maxDev float64
	for i := 0; i < b.N; i++ {
		f, err := runAs[testbench.Fig1](testbench.Spec{Campaign: "fig1", Params: testbench.Fig1Params{Shift: 0.10, Points: 512}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		maxDev = 0
		for j := range f.Golden {
			dx := f.Golden[j].X - f.Defective[j].X
			dy := f.Golden[j].Y - f.Defective[j].Y
			if d := dx*dx + dy*dy; d > maxDev {
				maxDev = d
			}
		}
	}
	b.ReportMetric(maxDev, "maxdev²")
}

// TAB1: the six monitor configurations (Table I).
func BenchmarkTable1Configs(b *testing.B) {
	var curves int
	for i := 0; i < b.N; i++ {
		curves = 0
		for _, cfg := range monitor.TableI() {
			a, err := monitor.NewAnalytic(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if pts := a.TraceBoundary(0, 1, 21); len(pts) > 0 {
				curves++
			}
		}
	}
	b.ReportMetric(float64(curves), "curves")
}

// FIG4: experimental control curves from the transistor-level monitor
// (one MNA-extracted boundary point per iteration) next to the analytic
// family.
func BenchmarkFig4Boundaries(b *testing.B) {
	f, err := runAs[testbench.Fig4](testbench.Spec{Campaign: "fig4", Params: testbench.Fig4Params{Points: 41}})
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, c := range f.Curves {
		total += len(c)
	}
	sm, err := monitor.NewSpice(monitor.TableI()[2], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var y float64
	for i := 0; i < b.N; i++ {
		var ok bool
		y, ok = sm.BoundaryY(0.4, 0, 1)
		if !ok {
			b.Fatal("no boundary at x=0.4")
		}
	}
	b.ReportMetric(float64(total), "analytic_pts")
	b.ReportMetric(y, "spice_y@0.4")
}

// FIG4-MC: Monte Carlo envelope of curve 3 (process + mismatch).
func BenchmarkFig4MonteCarlo(b *testing.B) {
	var inside float64
	for i := 0; i < b.N; i++ {
		env, err := runAs[testbench.Fig4MC](testbench.Spec{Campaign: "fig4mc", Seed: 7, Params: testbench.Fig4MCParams{Monitor: 2, Dies: 60, Cols: 15}})
		if err != nil {
			b.Fatal(err)
		}
		inside = env.NominalInsideEnvelope()
	}
	b.ReportMetric(inside, "nominal_inside")
}

// FIG6: zone codification — partition size and Gray-property check.
func BenchmarkFig6ZoneMap(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	var zones, violations int
	for i := 0; i < b.N; i++ {
		zm, err := zone.Build(bank, 0, 1, 101)
		if err != nil {
			b.Fatal(err)
		}
		zones = zm.NumZones()
		violations = len(zm.GrayViolations())
	}
	b.ReportMetric(float64(zones), "zones")
	b.ReportMetric(float64(violations), "gray_violations")
}

// FIG7: signature chronogram and the headline NDF = 0.1021 at +10%.
func BenchmarkFig7Chronogram(b *testing.B) {
	sys := core.Default()
	var v float64
	for i := 0; i < b.N; i++ {
		f, err := runAs[testbench.Fig7](testbench.Spec{Campaign: "fig7", Params: testbench.Fig7Params{Shift: 0.10, Points: 400}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		v = f.NDF
	}
	// Paper reference value: 0.1021.
	b.ReportMetric(v, "NDF@+10%")
}

// FIG8: the NDF-vs-deviation acceptance curve.
func BenchmarkFig8NDFSweep(b *testing.B) {
	sys := core.Default()
	var left, right float64
	for i := 0; i < b.N; i++ {
		f, err := runAs[testbench.Fig8](testbench.Spec{Campaign: "fig8", Params: testbench.Fig8Params{MaxDev: 0.20, Points: 9, Tol: 0.05}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		left, right = f.NDFs[0], f.NDFs[len(f.NDFs)-1]
	}
	b.ReportMetric(left, "NDF@-20%")
	b.ReportMetric(right, "NDF@+20%")
}

// NOISE: detectability of 1% deviations under 3σ = 0.015 V noise.
func BenchmarkNoiseDetection(b *testing.B) {
	sys := core.Default()
	var det1 float64
	for i := 0; i < b.N; i++ {
		n, err := runAs[testbench.Noise](testbench.Spec{Campaign: "noise", Seed: 42, Params: testbench.NoiseParams{Sigma: 0.005, Devs: []float64{0.01}, NullTrials: 8, Trials: 8}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		det1 = n.Detect[0]
	}
	b.ReportMetric(det1, "detect@1%")
}

// ABL-LIN: straight-line zoning baseline (refs [12][13]).
func BenchmarkAblationLinearZoning(b *testing.B) {
	sys := core.Default()
	var ratio float64
	for i := 0; i < b.N; i++ {
		a, err := runAs[testbench.AblLinear](testbench.Spec{Campaign: "linear", Params: testbench.LinearParams{Devs: []float64{-0.10, 0.10}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		ratio = a.LinearUm2 / a.NonlinearUm2
	}
	b.ReportMetric(ratio, "area_ratio_linear/nonlinear")
}

// ABL-CNT: counter width / master clock quantization.
func BenchmarkAblationCounter(b *testing.B) {
	sys := core.Default()
	var worst float64
	for i := 0; i < b.N; i++ {
		a, err := runAs[testbench.AblCounter](testbench.Spec{Campaign: "counter", Params: testbench.CounterParams{Shift: 0.10, Bits: []int{8, 16}, Clocks: []float64{1e6, 10e6}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range a.AbsErr {
			for _, e := range row {
				if e > worst {
					worst = e
				}
			}
		}
	}
	b.ReportMetric(worst, "worst_NDF_error")
}

// ABL-REG: alternate-test regression baseline (ref [11]).
func BenchmarkAblationRegression(b *testing.B) {
	sys := core.Default()
	var rmse float64
	for i := 0; i < b.N; i++ {
		a, err := runAs[testbench.AblRegression](testbench.Spec{Campaign: "regress", Params: testbench.RegressParams{TrainDevs: []float64{-0.20, -0.15, -0.10, -0.06, -0.03, 0, 0.03, 0.06, 0.10, 0.15, 0.20}, TestDevs: []float64{-0.12, -0.04, 0.07, 0.12}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		rmse = a.TestRMSE
	}
	b.ReportMetric(rmse, "heldout_RMSE")
}

// EXT-Q: Q-verification extension (band-pass observation).
func BenchmarkExtensionQVerification(b *testing.B) {
	sys := core.Default()
	var bp20 float64
	for i := 0; i < b.N; i++ {
		e, err := runAs[testbench.ExtQ](testbench.Spec{Campaign: "q", Params: testbench.QParams{Devs: []float64{0.20}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		bp20 = e.BPNDF[0]
	}
	b.ReportMetric(bp20, "BP_NDF@Q+20%")
}

// EXT-FAULTS: component-level fault campaign on the Tow-Thomas design.
func BenchmarkExtensionFaultCampaign(b *testing.B) {
	sys := core.Default()
	dec, err := sys.CalibrateFromTolerance(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		b.Fatal(err)
	}
	var coverage float64
	for i := 0; i < b.N; i++ {
		tab, err := runAs[testbench.FaultTable](testbench.Spec{Campaign: "faults", Params: testbench.FaultsParams{Threshold: &dec.Threshold, Faults: testbench.DefaultFaultSet()}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		coverage = tab.Coverage()
	}
	b.ReportMetric(coverage, "coverage")
}

// ABL-MET: NDF vs sequence edit distance (ref [12] comparison style).
func BenchmarkAblationMetric(b *testing.B) {
	sys := core.Default()
	var ndfRes, editRes float64
	for i := 0; i < b.N; i++ {
		a, err := runAs[testbench.AblMetric](testbench.Spec{Campaign: "metric", Params: testbench.MetricParams{Devs: []float64{-0.05, -0.02, -0.005, 0.005, 0.02, 0.05}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		ndfRes, editRes = a.SmallestMoved()
	}
	b.ReportMetric(ndfRes, "NDF_resolution")
	b.ReportMetric(editRes, "edit_resolution")
}

// EXT-TEMP: spurious NDF of a golden CUT vs monitor temperature.
func BenchmarkExtensionTempDrift(b *testing.B) {
	sys := core.Default()
	var at350 float64
	for i := 0; i < b.N; i++ {
		td, err := runAs[testbench.TempDrift](testbench.Spec{Campaign: "temp", Params: testbench.TempParams{TempsK: []float64{350}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		at350 = td.NDFs[0]
	}
	b.ReportMetric(at350, "NDF@350K")
}

// ABL-SPEC: dwell features vs Goertzel spectral features.
func BenchmarkAblationSpectral(b *testing.B) {
	sys := core.Default()
	var rmse float64
	for i := 0; i < b.N; i++ {
		a, err := runAs[testbench.AblSpectral](testbench.Spec{Campaign: "spectral", Params: testbench.SpectralParams{TrainDevs: []float64{-0.20, -0.10, -0.03, 0, 0.03, 0.10, 0.20}, TestDevs: []float64{-0.12, 0.07}}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		rmse = a.SpectralRMSE
	}
	b.ReportMetric(rmse, "spectral_RMSE")
}

// NOISE-SWEEP: resolution vs noise level.
func BenchmarkNoiseResolutionSweep(b *testing.B) {
	sys := core.Default()
	var at5mV float64
	for i := 0; i < b.N; i++ {
		ns, err := runAs[testbench.NoiseSweep](testbench.Spec{Campaign: "noisesweep", Seed: 7, Params: testbench.NoiseSweepParams{Sigmas: []float64{0.005}, DevGrid: []float64{0.005, 0.01, 0.02, 0.05}, Trials: 6}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		at5mV = ns.MinDetectable[0]
	}
	b.ReportMetric(at5mV, "min_detectable@5mV")
}

// Pipeline micro-benchmarks (engineering numbers, not paper artifacts).

func BenchmarkSignatureCapture(b *testing.B) {
	sys := core.Default()
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.CapturedSignature(cut, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSignature(b *testing.B) {
	sys := core.Default()
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.ExactSignature(cut); err != nil {
			b.Fatal(err)
		}
	}
}

// EXACT-SIG-SCRATCH: the warm exact-signature NDF of Monte-Carlo dies
// (2% component sigma) through one reused trial scratch — the yield
// campaign's per-die unit: CUT output, scan-grid classification, edge
// bisection and NDF.
func BenchmarkExactSignatureScratch(b *testing.B) {
	sys := core.Default()
	const dies = 64
	cuts := make([]core.CUT, dies)
	for i := range cuts {
		s := rng.NewSub(1, uint64(i))
		c, err := sys.Deviated(core.Deviation{
			RDrift:  s.Gauss(0, 0.02),
			RQDrift: s.Gauss(0, 0.02),
			RGDrift: s.Gauss(0, 0.02),
			CDrift:  s.Gauss(0, 0.02),
		})
		if err != nil {
			b.Fatal(err)
		}
		cuts[i] = c
	}
	sc := core.NewTrialScratch()
	if _, err := sys.NDFOfScratch(cuts[0], sc); err != nil {
		b.Fatal(err) // warm the LUT, grids and golden signature
	}
	var v float64
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err = sys.NDFOfScratch(cuts[i%dies], sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "NDF")
}

func BenchmarkNDFExact(b *testing.B) {
	sys := core.Default()
	g, err := sys.GoldenSignature()
	if err != nil {
		b.Fatal(err)
	}
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sys.ExactSignature(cut)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ndf.NDF(d, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBankClassify(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	src := rng.New(1)
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Classify(xs[i%1024], ys[i%1024])
	}
}

// BANK-BATCH: the certified zone LUT classifying the same random points
// in one call (compare per-point cost against BenchmarkBankClassify).
func BenchmarkBankClassifyBatch(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	src := rng.New(1)
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	codes := make([]monitor.Code, len(xs))
	bank.ClassifyBatch(xs, ys, codes) // build the LUT before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.ClassifyBatch(xs, ys, codes)
	}
}

// BANK-POINT: one point through the per-bit certified LUT — the edge
// bisection probe of the batched exact signature (compare against
// BenchmarkBankClassify, the exact six-monitor evaluation).
func BenchmarkBankClassifyPoint(b *testing.B) {
	bank := monitor.NewAnalyticTableI()
	src := rng.New(1)
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	for i := range xs {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	bank.ClassifyPoint(xs[0], ys[0]) // build the LUT before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.ClassifyPoint(xs[i%1024], ys[i%1024])
	}
}

// BANK-LUT-BUILD: cold zone-LUT certification of a fresh Table I bank
// (the first BatchInfo) — the per-System setup every campaign and
// service job pays once.
func BenchmarkBankLUTBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if enabled, _ := monitor.NewAnalyticTableI().BatchInfo(); !enabled {
			b.Fatal("Table I bank built no LUT")
		}
	}
}

// SIG-BATCH: the warm tick-grid capture (cached stimulus grid, batch
// output evaluation, zone-LUT classification, codes-slice walk) — the
// per-period unit of every campaign. Compare against
// BenchmarkSignatureCaptureScalar, the same capture on the LUT-less
// reference bank.
func BenchmarkSignatureCaptureBatched(b *testing.B) {
	benchmarkSignatureCaptureEngine(b, core.Default())
}

// SIG-SCALAR: the warm capture on the LUT-less reference bank, which
// classifies every tick exactly with Bank.Classify.
func BenchmarkSignatureCaptureScalar(b *testing.B) {
	benchmarkSignatureCaptureEngine(b, referenceSystem(b))
}

func benchmarkSignatureCaptureEngine(b *testing.B, sys *core.System) {
	cut, err := sys.Shifted(0.10)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewTrialScratch()
	if _, err := sys.CapturedSignatureScratch(cut, 0, nil, sc); err != nil {
		b.Fatal(err) // also warms the LUT and grid caches
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.CapturedSignatureScratch(cut, 0, nil, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// NDF-AVG-BATCH / NDF-AVG-SCALAR: the noisy averaged-NDF measurement —
// the per-trial unit of the noise detection, resolution and yield
// campaigns — on the LUT bank and on the LUT-less reference bank.
func BenchmarkAveragedNDFBatched(b *testing.B) {
	benchmarkAveragedNDFEngine(b, core.Default())
}

func BenchmarkAveragedNDFScalar(b *testing.B) {
	benchmarkAveragedNDFEngine(b, referenceSystem(b))
}

func benchmarkAveragedNDFEngine(b *testing.B, sys *core.System) {
	cut, err := sys.Shifted(0.02)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewTrialScratch()
	src := rng.New(3)
	if _, err := sys.AveragedNDFScratch(cut, 0.005, src.Split(0), 1, sc); err != nil {
		b.Fatal(err) // warm caches outside the timing loop
	}
	var v float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err = sys.AveragedNDFScratch(cut, 0.005, src.Split(uint64(i)), 4, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "NDF")
}

func BenchmarkSpiceMonitorBit(b *testing.B) {
	sm, err := monitor.NewSpice(monitor.TableI()[2], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.BitErr(0.4, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// EXT-YIELD: production yield/escape/overkill simulation.
func BenchmarkExtensionYield(b *testing.B) {
	sys := core.Default()
	dec, err := testbench.CalibrateMultiParam(sys, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	var defect, overkill float64
	for i := 0; i < b.N; i++ {
		y, err := runAs[testbench.Yield](testbench.Spec{Campaign: "yield", Seed: 11, Params: testbench.YieldParams{N: 120, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		defect, overkill = y.DefectLevel(), y.OverkillRate()
	}
	b.ReportMetric(defect, "defect_level")
	b.ReportMetric(overkill, "overkill")
}

// EXT-CORNERS: spurious NDF of a golden CUT at foundry corners.
func BenchmarkExtensionCorners(b *testing.B) {
	sys := core.Default()
	var ss float64
	for i := 0; i < b.N; i++ {
		cd, err := runAs[testbench.CornerDrift](testbench.Spec{Campaign: "corners"}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		ss = cd.NDFs[1]
	}
	b.ReportMetric(ss, "NDF@SS")
}

// TRANSIENT-LIN: the linear fast path of the SPICE transient engine on
// the Tow-Thomas netlist (one LU factorization, one solve per step).
func BenchmarkTransientTowThomasLinear(b *testing.B) {
	benchmarkTransientTowThomas(b, false)
}

// TRANSIENT-NEWTON: the same transient with the per-step Newton loop
// forced (the pre-fast-path baseline). The Linear benchmark must be ≥5×
// faster than this one.
func BenchmarkTransientTowThomasNewton(b *testing.B) {
	benchmarkTransientTowThomas(b, true)
}

func benchmarkTransientTowThomas(b *testing.B, forceNewton bool) {
	comps, err := biquad.DesignTowThomas(biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}, 1e-9)
	if err != nil {
		b.Fatal(err)
	}
	stim := core.Default().Stimulus
	ws := spice.NewWorkspace()
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckt, nodes, err := comps.Netlist()
		if err != nil {
			b.Fatal(err)
		}
		vin, ok := ckt.FindElement("VIN").(*spice.VSource)
		if !ok {
			b.Fatal("netlist has no VIN source")
		}
		vin.SetWaveform(stim)
		ts := spice.NewTransientSolverWS(ckt, spice.Options{Trapezoid: true, ForceNewton: forceNewton}, ws)
		lp := ckt.Node(nodes.LP)
		err = ts.Run(stim.Period(), 2048, func(k int, t float64, sol *spice.Solution) {
			last = sol.VoltageAt(lp)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last, "v_lp_final")
}

// CUT-SPICE: one full SPICE-backend output materialization (settling +
// capture period) — the per-trial unit of a SPICE-backed campaign.
func BenchmarkSpiceCUTOutput(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cut, err := sys.Shifted(0.10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cut.Output(sys.Stimulus, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// CUT-SPICE-TEMPLATE: the same per-trial unit as BenchmarkSpiceCUTOutput
// served through a per-worker circuit template — the campaign fast path
// (perturb, refresh element values, settle + capture on the compiled
// template). The ratio to BenchmarkSpiceCUTOutput is the per-trial
// speedup the trial-template engine buys; TestSpiceTrialEnginePinnedSpeedup
// pins it.
func BenchmarkSpiceTrialEngine(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	var sc biquad.SpiceTrialScratch
	trial := func() error {
		cut, err := sys.Shifted(0.10)
		if err != nil {
			return err
		}
		_, err = cut.(*biquad.SpiceCUT).OutputScratch(sys.Stimulus, 0, &sc)
		return err
	}
	if err := trial(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trial(); err != nil {
			b.Fatal(err)
		}
	}
}

// CUT-SPICE-BATCH: the same trials as BenchmarkSpiceTrialEngine served
// through the cross-trial batched engine — blocks of deviated CUTs run
// interleaved through the fused solve kernel, one op per trial. The
// ratio to BenchmarkSpiceTrialEngine is what cross-trial latency hiding
// buys on top of the per-trial template reuse.
func BenchmarkSpiceTrialEngineBatch(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	cuts := make([]*biquad.SpiceCUT, spice.BatchLanes)
	for i := range cuts {
		cut, err := sys.Shifted(0.10)
		if err != nil {
			b.Fatal(err)
		}
		cuts[i] = cut.(*biquad.SpiceCUT)
	}
	var sb biquad.SpiceTrialBatch
	emit := func(i int, w wave.Waveform) error { return nil }
	if err := biquad.SpiceOutputBatch(cuts, sys.Stimulus, 0, &sb, emit); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += len(cuts) {
		n := b.N - done
		if n > len(cuts) {
			n = len(cuts)
		}
		if err := biquad.SpiceOutputBatch(cuts[:n], sys.Stimulus, 0, &sb, emit); err != nil {
			b.Fatal(err)
		}
	}
}

// CAMPAIGN-SPICE: the reduced fault-table campaign on the SPICE backend
// (the cmd/mcmon -backend=spice path).
func BenchmarkFaultTableSpice(b *testing.B) {
	sys, err := core.DefaultSpice()
	if err != nil {
		b.Fatal(err)
	}
	faults := []biquad.Fault{
		{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: 0.10},
		{Kind: biquad.FaultOpen, Target: biquad.TargetRQ},
		{Kind: biquad.FaultShort, Target: biquad.TargetC},
	}
	thr := 0.02
	var coverage float64
	for i := 0; i < b.N; i++ {
		tab, err := runAs[testbench.FaultTable](testbench.Spec{Campaign: "faults", Params: testbench.FaultsParams{Threshold: &thr, Faults: faults}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		coverage = tab.Coverage()
	}
	b.ReportMetric(coverage, "coverage")
}

// EXT-BIST: stuck-at monitor faults detected by the golden comparison.
func BenchmarkExtensionSelfTest(b *testing.B) {
	sys := core.Default()
	dec, err := sys.CalibrateFromTolerance(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		b.Fatal(err)
	}
	var cov float64
	for i := 0; i < b.N; i++ {
		st, err := runAs[testbench.SelfTest](testbench.Spec{Campaign: "selftest", Params: testbench.SelfTestParams{Threshold: &dec.Threshold}}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		cov = st.Coverage()
	}
	b.ReportMetric(cov, "stuckat_coverage")
}

// API: registry-dispatch overhead — a full Run (spec decode, registry
// lookup, option resolution, envelope assembly) around the cheapest
// campaign, so the number is dominated by the dispatch machinery the PR 4
// redesign put in front of every campaign, not by the campaign itself.
func BenchmarkRegistryDispatch(b *testing.B) {
	ctx := context.Background()
	var zones int
	for i := 0; i < b.N; i++ {
		res, err := testbench.Run(ctx, testbench.Spec{Campaign: "table1"})
		if err != nil {
			b.Fatal(err)
		}
		zones = len(res.Payload.(*testbench.Table1).Configs)
	}
	b.ReportMetric(float64(zones), "configs")
}

// API: the same dispatch from raw JSON — the mcserved HTTP body path,
// including the strict params decode.
func BenchmarkRegistryDispatchJSON(b *testing.B) {
	ctx := context.Background()
	body := []byte(`{"campaign":"fig1","workers":1,"params":{"shift":0.1,"points":16}}`)
	for i := 0; i < b.N; i++ {
		var spec testbench.Spec
		if err := json.Unmarshal(body, &spec); err != nil {
			b.Fatal(err)
		}
		if _, err := testbench.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// ENGINE-REDUCE / ENGINE-RUN: the campaign engine's per-trial overhead
// on a million trivial trials — the streaming reduction against the
// materializing worker pool. Reduce's win (no result slots, chunked
// progress ticks) is pinned >= 1.5x by TestReducePinnedThroughput; the
// allocation column is the O(trials)-vs-O(workers) memory story.
func BenchmarkCampaignReduce1M(b *testing.B) {
	ctx := context.Background()
	red := campaign.Reducer[float64, float64]{
		Fold:  func(a float64, _ int, v float64) float64 { return a + v },
		Merge: func(a, c float64) float64 { return a + c },
	}
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = campaign.Reduce(ctx, campaign.Engine{Workers: 1}, 1_000_000, red,
			func(i int) (float64, error) { return float64(i & 1), nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum, "sum")
}

func BenchmarkCampaignRun1M(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	var out []float64
	for i := 0; i < b.N; i++ {
		var err error
		out, err = campaign.Run(ctx, campaign.Engine{Workers: 1}, 1_000_000,
			func(i int) (float64, error) { return float64(i & 1), nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out)), "slots")
}

// ENGINE-CKPT: the durable fabric's checkpoint tax on the streaming
// reduction — a million trivial trials through campaign.ReduceSpan with
// no sink, with the default cadence (one serialized accumulator every
// 65536 trials, the fabric's job-log append), and with an aggressively
// short cadence. The off-vs-default gap is pinned < 5% by
// TestCheckpointOverheadPinned; "default" is the benchdiff-pinned
// variant.
func BenchmarkCheckpointOverhead(b *testing.B) {
	for _, bc := range []struct {
		name    string
		cadence int
		sink    bool
	}{
		{name: "off", cadence: 0, sink: false},
		{name: "default", cadence: campaign.DefaultCheckpoint, sink: true},
		{name: "cadence4096", cadence: 4096, sink: true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			e := campaign.Engine{Workers: 1, Checkpoint: bc.cadence}
			span := campaign.Span{Lo: 0, Hi: 1_000_000}
			var ckpt campaign.CheckpointFunc[float64]
			var blobs, bytes int
			if bc.sink {
				ckpt = func(acc float64, through int) error {
					// The per-checkpoint work a fabric worker pays: encode
					// the accumulator and hand the blob to the store layer.
					var buf [16]byte
					binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(acc))
					binary.LittleEndian.PutUint64(buf[8:], uint64(through))
					blobs++
					bytes += len(buf)
					return nil
				}
			}
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				var err error
				sum, err = campaign.ReduceSpan(ctx, e, span, nil, ckpt, sumRed(), trivialTrial)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sum, "sum")
			if b.N > 0 {
				b.ReportMetric(float64(blobs)/float64(b.N), "ckpts/op")
			}
			_ = bytes
		})
	}
}

// EXT-YIELD-STREAM: the streamed production-yield campaign at 10k dies
// on a reduced scan resolution — the registry + reduction path of a
// million-die run, sized for the benchmark budget. Allocations stay
// O(workers + chunk) however many dies the spec names.
func BenchmarkYieldStreaming10k(b *testing.B) {
	sys := core.Default()
	sys.ScanN = 64
	thr := 0.03
	ctx := context.Background()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := testbench.Run(ctx, testbench.Spec{
			Campaign: "yield",
			Seed:     1,
			Params:   testbench.YieldParams{N: 10_000, ComponentSigma: 0.02, Tol: 0.05, Threshold: &thr},
		}, testbench.WithSystem(sys))
		if err != nil {
			b.Fatal(err)
		}
		rate = res.Payload.(*testbench.Yield).YieldRate()
	}
	b.ReportMetric(rate, "yield_rate")
}
