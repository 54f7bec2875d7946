// Package core is the public face of the reproduction: it wires the
// paper's full test path — multitone stimulus, Biquad CUT, X-Y zoning
// monitor bank, asynchronous signature capture, and NDF-based decision —
// into one System that examples, tools and benchmarks share.
//
// The circuit under test is pluggable: System is written against the
// CUT backend interface, with two implementations — the closed-form
// analytic Tow-Thomas model (biquad.AnalyticCUT) and the SPICE-transient
// netlist engine (biquad.SpiceCUT) — so every campaign, sweep and CLI
// runs on either.
//
// The zero-configuration entry point is Default(), which reproduces the
// paper's experiment: a {5, 10, 15} kHz multitone around 0.5 V into a
// low-pass Biquad (f0 = 10 kHz, Q = 0.9), observed by the six Table I
// monitors, captured with a 10 MHz clock and 16-bit counter over the
// 200 µs Lissajous period. DefaultSpice() is the same system on the
// SPICE backend.
package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/lissajous"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/wave"
)

// CUT is the pluggable circuit-under-test backend every campaign is
// parameterized over; see biquad.CUT for the contract and the two
// shipped implementations (analytic model and SPICE netlist engine).
type CUT = biquad.CUT

// Deviation re-exports the perturbation description campaigns hand to
// CUT.Perturb.
type Deviation = biquad.Deviation

// Observation selects which CUT output the monitor composes with the
// stimulus. The paper observes the low-pass output; the band-pass
// observation is the ref [14]-style generalization this repository adds
// for Q verification.
type Observation int

// Observation modes.
const (
	// ObserveLP composes x = stimulus, y = low-pass output (the paper).
	ObserveLP Observation = iota
	// ObserveBP composes x = stimulus, y = band-pass output re-biased to
	// mid-rail (Q-verification extension).
	ObserveBP
)

// String implements fmt.Stringer.
func (o Observation) String() string {
	if o == ObserveBP {
		return "band-pass"
	}
	return "low-pass"
}

// output maps the observation onto the CUT backend's output selector.
func (o Observation) output() biquad.Output {
	if o == ObserveBP {
		return biquad.OutputBP
	}
	return biquad.OutputLP
}

// System bundles the test setup. Create with Default, DefaultSpice or
// NewSystem and treat as immutable afterwards; methods are safe for
// concurrent use.
type System struct {
	Stimulus *wave.Multitone
	// CUT is the golden circuit-under-test backend; deviated and faulty
	// devices are derived from it with Deviated/Shifted (CUT.Perturb).
	CUT     CUT
	Bank    *monitor.Bank
	Capture signature.CaptureConfig
	// ScanN is the scan resolution for exact signature extraction
	// (samples per period before bisection refinement).
	ScanN int
	// Observe selects the monitored CUT output (default: low-pass).
	// Set before first use; the golden signature is cached per system.
	Observe Observation

	goldenOnce sync.Once
	goldenSig  *signature.Signature
	goldenErr  error

	// Cached sample grids of the (immutable) stimulus: the capture's
	// master-clock tick grid and the exact-extraction scan grid. Built
	// once per system and shared read-only across trials and workers.
	tickGrid gridCache
	scanGrid gridCache
}

// gridCache lazily holds a time grid and the stimulus samples on it.
type gridCache struct {
	once   sync.Once
	ts, xs []float64
	err    error
}

// ticks returns the master-clock tick grid (t_k = k/ClockHz over one
// period) and the stimulus samples on it, computing both once.
func (s *System) ticks() (ts, xs []float64, err error) {
	g := &s.tickGrid
	g.once.Do(func() {
		n, err := s.Capture.Ticks(s.Period())
		if err != nil {
			g.err = err
			return
		}
		tick := 1 / s.Capture.ClockHz
		g.ts = make([]float64, n)
		for k := range g.ts {
			g.ts[k] = float64(k) * tick
		}
		g.xs = make([]float64, n)
		wave.EvalInto(s.Stimulus, g.ts, g.xs)
	})
	return g.ts, g.xs, g.err
}

// scans returns the exact-extraction scan grid (t_i = T·i/ScanN,
// i = 0 … ScanN) and the stimulus samples on it, computing both once.
func (s *System) scans() (ts, xs []float64, err error) {
	g := &s.scanGrid
	g.once.Do(func() {
		if s.ScanN < 2 {
			g.err = fmt.Errorf("signature: need at least 2 scan points")
			return
		}
		T := s.Period()
		g.ts = make([]float64, s.ScanN+1)
		for i := range g.ts {
			g.ts[i] = T * float64(i) / float64(s.ScanN)
		}
		g.xs = make([]float64, len(g.ts))
		wave.EvalInto(s.Stimulus, g.ts, g.xs)
	})
	return g.ts, g.xs, g.err
}

// TrialScratch bundles the per-worker reusable buffers of the batched
// signature engine: perturbed sample grids plus the capture scratch
// (raw entries, canonical entries, per-tick codes). One scratch per
// campaign worker; not safe for concurrent use.
type TrialScratch struct {
	capture signature.CaptureBuffer
	xs, ys  []float64
	// ybase holds averagedNDF's clean output tick samples, shared
	// read-only by every period of one call.
	ybase []float64
	// miss lists the scan points the bounded scan left for exact
	// evaluation.
	miss []int32
	// spice carries the SPICE backend's per-worker trial state: a
	// compiled circuit template plus the transient sample buffer, so a
	// worker's trials skip netlist elaboration and solver setup entirely.
	// Backends without a template path never touch it.
	spice biquad.SpiceTrialScratch
}

// NewTrialScratch returns an empty scratch; buffers grow on first use.
func NewTrialScratch() *TrialScratch { return &TrialScratch{} }

// growXs returns the x-sample scratch resized to n (contents undefined).
func (sc *TrialScratch) growXs(n int) []float64 {
	sc.xs = grow(sc.xs, n)
	return sc.xs
}

// growYs returns the y-sample scratch resized to n (contents undefined).
func (sc *TrialScratch) growYs(n int) []float64 {
	sc.ys = grow(sc.ys, n)
	return sc.ys
}

// grow returns buf resized to n, reallocating only when its capacity is
// short (contents undefined).
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// goldenParams is the paper's reference CUT.
var goldenParams = biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}

// defaultStimulus builds the paper's multitone.
func defaultStimulus() *wave.Multitone {
	stim, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return stim
}

// Default returns the paper's reference system on the analytic backend.
func Default() *System {
	cut, err := biquad.NewAnalyticCUT(goldenParams)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return &System{
		Stimulus: defaultStimulus(),
		CUT:      cut,
		Bank:     monitor.NewAnalyticTableI(),
		Capture:  signature.DefaultCapture(),
		ScanN:    8192,
	}
}

// DefaultSpice returns the paper's reference system with the golden CUT
// realized as a Tow-Thomas netlist simulated by the SPICE engine.
func DefaultSpice() (*System, error) {
	cut, err := biquad.NewSpiceCUTFromParams(goldenParams, biquad.SpiceConfig{})
	if err != nil {
		return nil, err
	}
	s := Default()
	s.CUT = cut
	return s, nil
}

// Backends lists the registered CUT backend names, in the order the
// -backend flags and campaign specs document them. The empty spec value
// resolves to the first entry.
func Backends() []string { return []string{"analytic", "spice"} }

// SystemForBackend returns the paper's reference system on the named
// CUT backend ("analytic" or "spice") — the shared resolver behind the
// CLIs' -backend flags and the campaign registry's spec field.
func SystemForBackend(name string) (*System, error) {
	switch name {
	case "analytic":
		return Default(), nil
	case "spice":
		return DefaultSpice()
	default:
		return nil, fmt.Errorf("core: unknown CUT backend %q (want %s)", name, strings.Join(Backends(), " or "))
	}
}

// NewSystem builds a custom system, validating the pieces.
func NewSystem(stim *wave.Multitone, cut CUT, bank *monitor.Bank, cap signature.CaptureConfig) (*System, error) {
	if stim == nil || stim.Period() <= 0 {
		return nil, fmt.Errorf("core: stimulus must be a periodic multitone")
	}
	if cut == nil {
		return nil, fmt.Errorf("core: CUT backend must not be nil")
	}
	if err := cut.Params().Validate(); err != nil {
		return nil, err
	}
	if bank == nil || bank.Size() == 0 {
		return nil, fmt.Errorf("core: monitor bank must not be empty")
	}
	if err := cap.Validate(); err != nil {
		return nil, err
	}
	return &System{Stimulus: stim, CUT: cut, Bank: bank, Capture: cap, ScanN: 8192}, nil
}

// Golden returns the behavioural parameters of the golden CUT.
func (s *System) Golden() biquad.Params { return s.CUT.Params() }

// Deviated returns the golden CUT with the given deviation applied.
func (s *System) Deviated(d Deviation) (CUT, error) { return s.CUT.Perturb(d) }

// Shifted returns the golden CUT with a fractional f0 shift — the
// deviation class the paper sweeps.
func (s *System) Shifted(shift float64) (CUT, error) {
	return s.CUT.Perturb(Deviation{F0Shift: shift})
}

// Period returns the Lissajous period T.
func (s *System) Period() float64 { return s.Stimulus.Period() }

// output resolves the observed output waveform of a CUT.
func (s *System) output(c CUT) (wave.Waveform, error) {
	return c.Output(s.Stimulus, s.Observe.output())
}

// trialOutputter is the optional CUT capability behind the batched trial
// engine: backends that can serve an observation through a per-worker
// trial scratch (the SPICE backend's compiled circuit template) run at
// template speed inside campaign loops, with bit-identical samples.
type trialOutputter interface {
	OutputScratch(stim *wave.Multitone, out biquad.Output, sc *biquad.SpiceTrialScratch) (wave.Waveform, error)
}

// outputScratch is output with an optional per-worker trial scratch.
// The returned waveform may alias the scratch's buffers and is valid
// only until the scratch's next trial — exactly the lifetime the
// signature paths need (they consume the waveform before returning).
func (s *System) outputScratch(c CUT, sc *TrialScratch) (wave.Waveform, error) {
	if sc != nil {
		if to, ok := c.(trialOutputter); ok {
			return to.OutputScratch(s.Stimulus, s.Observe.output(), &sc.spice)
		}
	}
	return s.output(c)
}

// Lissajous returns the X-Y composition for a CUT (x = stimulus,
// y = observed output).
func (s *System) Lissajous(c CUT) (lissajous.Curve, error) {
	out, err := s.output(c)
	if err != nil {
		return lissajous.Curve{}, err
	}
	return lissajous.New(s.Stimulus, out)
}

// Band-limiting of the measurement noise. The paper's experiment adds
// "high frequency white noise ... with a 3σ spread of 0.015 V" to the
// signals; noise above the monitor's input bandwidth is averaged away by
// the differential pair, so the capture only sees the in-band fraction.
// With the noise spread specified over NoiseBandHz and the monitor
// front-end passing MonitorBandHz, the effective per-sample sigma is
// sigma·√(MonitorBandHz/NoiseBandHz). DESIGN.md records this
// substitution; the noise_detect example reproduces the paper's
// "deviations as low as 1% are detected" with these defaults.
const (
	// NoiseBandHz is the bandwidth over which the injected noise's sigma
	// is specified (it is "high frequency" relative to the monitor).
	NoiseBandHz = 100e6
	// MonitorBandHz is the monitor front-end bandwidth.
	MonitorBandHz = 10e6
)

// EffectiveNoiseSigma returns the in-band noise the capture sees for a
// given wideband noise spread.
func EffectiveNoiseSigma(sigma float64) float64 {
	return sigma * math.Sqrt(MonitorBandHz/NoiseBandHz)
}

// ExactSignature computes the ideal (unquantized, noiseless) signature
// of a CUT.
func (s *System) ExactSignature(c CUT) (*signature.Signature, error) {
	return s.exactSignature(c, nil)
}

// exactSignature is ExactSignature with optional per-worker scratch. It
// classifies the scan grid (scanCodes) and bisects the bracketed
// transitions with Bank.ClassifyPoint, which reads the bits the LUT
// proves and evaluates only the rest exactly, so every code equals
// Bank.Classify at the same point.
func (s *System) exactSignature(c CUT, sc *TrialScratch) (*signature.Signature, error) {
	out, err := s.outputScratch(c, sc)
	if err != nil {
		return nil, err
	}
	cls := func(t float64) monitor.Code {
		return s.Bank.ClassifyPoint(s.Stimulus.Eval(t), out.Eval(t))
	}
	if sc == nil {
		sc = NewTrialScratch()
	}
	codes, err := s.scanCodes(out, sc)
	if err != nil {
		return nil, err
	}
	return signature.ExactFromCodes(codes, cls, s.Period(), 0)
}

// scanCodes classifies the output on the scan grid into the scratch's
// code buffer, bit-identical to ClassifyBatch over the exact samples.
// An analytic output (a Multitone) on a bank with a zone LUT takes the
// bounded path: the grid is approximated from the process-wide root
// table with a proven error bound eps (wave.Multitone.EvalGrid), the
// LUT settles every point whose eps-interval it proves, and only the
// remaining points are evaluated and classified exactly. Sampled (SPICE)
// outputs, banks without a LUT and grids the bound does not cover take
// the exact batch path.
func (s *System) scanCodes(out wave.Waveform, sc *TrialScratch) ([]monitor.Code, error) {
	ts, xs, err := s.scans()
	if err != nil {
		return nil, err
	}
	ys := sc.growYs(len(ts))
	codes := sc.capture.Codes(len(ts))
	if m, ok := out.(*wave.Multitone); ok && s.Bank.HasLUT() {
		if eps, ok := m.EvalGrid(s.Period(), s.ScanN, ys); ok {
			sc.miss = s.Bank.ClassifyBounded(xs, ys, eps, codes, sc.miss[:0])
			for _, i := range sc.miss {
				codes[i] = s.Bank.ClassifyPoint(xs[i], m.Eval(ts[i]))
			}
			return codes, nil
		}
	}
	wave.EvalInto(out, ts, ys)
	s.Bank.ClassifyBatch(xs, ys, codes)
	return codes, nil
}

// CapturedSignature runs the Fig. 5 clocked capture for a CUT,
// optionally with measurement noise. The caller owns the result.
func (s *System) CapturedSignature(c CUT, sigma float64, noise *rng.Stream) (*signature.Signature, error) {
	return s.capturedSignature(c, sigma, noise, nil)
}

// CapturedSignatureScratch is CapturedSignature with caller-owned
// per-worker scratch for Monte-Carlo trial loops. The returned signature
// is backed by the scratch and is only valid until the scratch's next
// capture — consume it (e.g. compute its NDF) before the next trial.
func (s *System) CapturedSignatureScratch(c CUT, sigma float64, noise *rng.Stream, sc *TrialScratch) (*signature.Signature, error) {
	return s.capturedSignature(c, sigma, noise, sc)
}

// capturedSignature implements the tick-grid capture: cached stimulus
// grid, batch output evaluation, zone-LUT classification and codes-slice
// capture. Measurement noise is drawn per tick in tick order, x before
// y. A nil sc degrades to one-shot scratch with a caller-owned result.
func (s *System) capturedSignature(c CUT, sigma float64, noise *rng.Stream, sc *TrialScratch) (*signature.Signature, error) {
	out, err := s.outputScratch(c, sc)
	if err != nil {
		return nil, err
	}
	ts, xs, err := s.ticks()
	if err != nil {
		return nil, err
	}
	var buf *signature.CaptureBuffer
	if sc == nil {
		sc = NewTrialScratch()
	} else {
		buf = &sc.capture
	}
	n := len(ts)
	ys := sc.growYs(n)
	wave.EvalInto(out, ts, ys)
	xv := xs
	if sigma > 0 && noise != nil {
		eff := EffectiveNoiseSigma(sigma)
		xv = sc.growXs(n)
		for k := 0; k < n; k++ {
			xv[k] = xs[k] + noise.Gauss(0, eff)
			ys[k] += noise.Gauss(0, eff)
		}
	}
	codes := sc.capture.Codes(n)
	s.Bank.ClassifyBatch(xv, ys, codes)
	return signature.CaptureCanonicalCodes(codes, s.Period(), s.Capture, buf)
}

// GoldenSignature returns the (cached) exact signature of the golden CUT.
func (s *System) GoldenSignature() (*signature.Signature, error) {
	s.goldenOnce.Do(func() {
		s.goldenSig, s.goldenErr = s.ExactSignature(s.CUT)
	})
	return s.goldenSig, s.goldenErr
}

// NDFOf returns the exact NDF of an arbitrary CUT against the golden
// signature — the general entry point the Q-verification and
// component-fault experiments use.
func (s *System) NDFOf(c CUT) (float64, error) {
	return s.NDFOfScratch(c, nil)
}

// NDFOfScratch is NDFOf with per-worker scratch for campaign fan-out
// (fault tables, yield populations); a nil scratch degrades to one-shot
// buffers. Scratch never affects the result.
func (s *System) NDFOfScratch(c CUT, sc *TrialScratch) (float64, error) {
	g, err := s.GoldenSignature()
	if err != nil {
		return 0, err
	}
	obs, err := s.exactSignature(c, sc)
	if err != nil {
		return 0, err
	}
	return ndf.NDF(obs, g)
}

// NDFOfDeviation perturbs the golden CUT and returns its exact NDF.
func (s *System) NDFOfDeviation(d Deviation) (float64, error) {
	c, err := s.Deviated(d)
	if err != nil {
		return 0, err
	}
	return s.NDFOf(c)
}

// NDFOfShift returns the exact NDF of a CUT whose natural frequency is
// shifted by the given fraction — one point of the Fig. 8 curve.
func (s *System) NDFOfShift(shift float64) (float64, error) {
	return s.NDFOfDeviation(Deviation{F0Shift: shift})
}

// SweepF0 evaluates NDFOfShift over a deviation grid (the Fig. 8 sweep),
// fanned out on the given campaign engine (worker bound, progress). The
// output order matches shifts; cancelling ctx aborts the sweep within one
// trial's latency, and the result is identical at any worker count.
func (s *System) SweepF0(ctx context.Context, shifts []float64, eng campaign.Engine) ([]float64, error) {
	// The golden signature must be materialized before fan-out so the
	// sync.Once does not serialize the workers.
	if _, err := s.GoldenSignature(); err != nil {
		return nil, err
	}
	return campaign.RunScratch(ctx, eng, len(shifts),
		NewTrialScratch,
		func(i int, sc *TrialScratch) (float64, error) {
			c, err := s.Shifted(shifts[i])
			if err != nil {
				return 0, fmt.Errorf("core: sweep point %g: %w", shifts[i], err)
			}
			v, err := s.NDFOfScratch(c, sc)
			if err != nil {
				return 0, fmt.Errorf("core: sweep point %g: %w", shifts[i], err)
			}
			return v, nil
		})
}

// AveragedNDFScratch captures the CUT over several consecutive Lissajous
// periods and averages the per-period NDF against the golden signature.
// Under measurement noise the per-period NDF carries a noise-floor mean
// plus sampling variance; averaging K periods shrinks the variance by
// ~1/√K, which is how a production tester makes small deviations (the
// paper's 1% claim) separable from the floor without changing hardware —
// it simply observes the CUT longer.
//
// Period k is an independent capture drawing its noise from the
// substream noise.Split(k). The periods run serially on the caller's
// scratch — campaign runners call this inside their own worker pools, so
// every trial a worker executes reuses one set of buffers. Scratch never
// affects the result. The clean output tick samples are evaluated once
// per call and shared read-only by every period's capture; each period
// only adds its own noise draws on top.
func (s *System) AveragedNDFScratch(c CUT, sigma float64, noise *rng.Stream, periods int, sc *TrialScratch) (float64, error) {
	if periods < 1 {
		periods = 1
	}
	g, err := s.GoldenSignature()
	if err != nil {
		return 0, err
	}
	// Materialize the observed output once: backends with an expensive
	// Output (the SPICE transient) compute it here instead of inside
	// every period's capture. The scratch-backed waveform stays valid
	// for all periods because they run serially on this scratch.
	out, err := s.outputScratch(c, sc)
	if err != nil {
		return 0, err
	}
	ts, xs, err := s.ticks()
	if err != nil {
		return 0, err
	}
	// The clean samples live in the caller's scratch, apart from the
	// buffers each period grows.
	sc.ybase = grow(sc.ybase, len(ts))
	ybase := sc.ybase
	wave.EvalInto(out, ts, ybase)
	eff := EffectiveNoiseSigma(sigma)
	sum := 0.0
	for k := 0; k < periods; k++ {
		var src *rng.Stream
		if noise != nil {
			src = noise.Split(uint64(k))
		}
		xv, yv := xs, ybase
		if sigma > 0 && src != nil {
			n := len(ts)
			xv, yv = sc.growXs(n), sc.growYs(n)
			for i := 0; i < n; i++ {
				xv[i] = xs[i] + src.Gauss(0, eff)
				yv[i] = ybase[i] + src.Gauss(0, eff)
			}
		}
		codes := sc.capture.Codes(len(xv))
		s.Bank.ClassifyBatch(xv, yv, codes)
		obs, err := signature.CaptureCanonicalCodes(codes, s.Period(), s.Capture, &sc.capture)
		if err != nil {
			return 0, err
		}
		v, err := ndf.NDF(obs, g)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(periods), nil
}

// TestResult is the outcome of one production test.
type TestResult struct {
	NDF  float64
	Pass bool
}

// Test captures a CUT (with optional noise) and applies the decision.
func (s *System) Test(c CUT, dec ndf.Decision, sigma float64, noise *rng.Stream) (TestResult, error) {
	g, err := s.GoldenSignature()
	if err != nil {
		return TestResult{}, err
	}
	obs, err := s.CapturedSignature(c, sigma, noise)
	if err != nil {
		return TestResult{}, err
	}
	v, err := ndf.NDF(obs, g)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{NDF: v, Pass: dec.Pass(v)}, nil
}

// CalibrateFromTolerance sweeps the deviation grid on the given campaign
// engine and places the acceptance threshold at the NDF of the tolerance
// edges — the Fig. 8 PASS/FAIL band construction. The sweep is
// cancellable and bit-identical at any worker count.
func (s *System) CalibrateFromTolerance(ctx context.Context, tol float64, gridPoints int, eng campaign.Engine) (ndf.Decision, error) {
	if gridPoints < 3 {
		gridPoints = 9
	}
	devs := make([]float64, gridPoints)
	for i := range devs {
		devs[i] = -tol*2 + 4*tol*float64(i)/float64(gridPoints-1)
	}
	ndfs, err := s.SweepF0(ctx, devs, eng)
	if err != nil {
		return ndf.Decision{}, err
	}
	return ndf.CalibrateThreshold(devs, ndfs, tol)
}
