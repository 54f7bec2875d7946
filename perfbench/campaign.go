package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/signature"
	"repro/internal/testbench"
	"repro/internal/wave"
)

// Workload parameters of the three campaign workloads. Every run uses
// benchWorkers campaign workers whatever the host has, so the work a run
// does is the same on every machine.
const (
	benchWorkers = 2
	setupReps    = 5

	// yield-analytic and yield-spice: the same die sequence on both
	// backends — four default-size reduction chunks on the analytic CUT,
	// the first two chunks' dies on SPICE, where a die costs twice as
	// much — with the threshold pinned so no calibration runs inside the
	// timed loop (0.315 is the corner calibration at tol 0.05, rounded).
	yieldDies      = 16384
	yieldSpiceDies = 8192
	yieldSigma     = 0.02
	yieldTol       = 0.05
	yieldThreshold = 0.315

	// noise-capture: a null calibration above testbench.ExactNullCutoff
	// (the streamed, sketch-backed path) and detection phases shorter
	// than one default chunk.
	noiseSigma   = 0.005
	noiseNull    = 4608
	noiseTrials  = 512
	noisePeriods = 5 // periods averaged per measurement, as the campaign does
)

var noiseDevs = []float64{0.005, 0.01, 0.02, 0.05}

// campaignSpec is the spec a campaign workload runs for a seed. The seed
// is the campaign's root seed, so it alone fixes the die population or
// the noise draws.
func campaignSpec(workload string, seed uint64) (testbench.Spec, error) {
	th := yieldThreshold
	yield := testbench.YieldParams{N: yieldDies, ComponentSigma: yieldSigma, Tol: yieldTol, Threshold: &th}
	switch workload {
	case "yield-analytic":
		return testbench.Spec{Campaign: "yield", Backend: "analytic", Seed: seed, Workers: benchWorkers, Params: yield}, nil
	case "yield-spice":
		yield.N = yieldSpiceDies
		return testbench.Spec{Campaign: "yield", Backend: "spice", Seed: seed, Workers: benchWorkers, Params: yield}, nil
	case "noise-capture":
		return testbench.Spec{Campaign: "noise", Backend: "analytic", Seed: seed, Workers: benchWorkers,
			Params: testbench.NoiseParams{Sigma: noiseSigma, Devs: noiseDevs, NullTrials: noiseNull, Trials: noiseTrials}}, nil
	}
	return testbench.Spec{}, fmt.Errorf("no campaign workload %q", workload)
}

// trialsPerRun is the number of dies or noise trials one run completes.
func trialsPerRun(spec testbench.Spec) int {
	switch p := spec.Params.(type) {
	case testbench.YieldParams:
		return p.N
	case testbench.NoiseParams:
		return p.NullTrials + p.Trials*(1+len(p.Devs))
	}
	return 0
}

// warmSystem is a system after set-up, with the set-up layers' timings.
type warmSystem struct {
	sys                         *core.System
	lutMs, goldenMs, firstOutMs float64
	certFrac                    float64
}

// buildWarm builds a system and runs its cold set-up: the certified LUT
// (first BatchInfo on a fresh bank), the golden signature, and the first
// CUT output on a fresh trial scratch (the template compile on SPICE).
func buildWarm(backend string) (*warmSystem, error) {
	sys, err := core.SystemForBackend(backend)
	if err != nil {
		return nil, err
	}
	w := &warmSystem{sys: sys}
	t := time.Now()
	_, w.certFrac = sys.Bank.BatchInfo()
	w.lutMs = msSince(t)
	t = time.Now()
	if _, err := sys.GoldenSignature(); err != nil {
		return nil, err
	}
	w.goldenMs = msSince(t)
	t = time.Now()
	if _, err := cutOutput(sys, sys.CUT, &biquad.SpiceTrialScratch{}); err != nil {
		return nil, err
	}
	w.firstOutMs = msSince(t)
	return w, nil
}

// setUp builds setupReps warm systems and returns the last with the
// median set-up time and the median of each set-up layer.
func setUp(backend string) (*warmSystem, float64, error) {
	var total, lut, golden, first []float64
	var w *warmSystem
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		var err error
		if w, err = buildWarm(backend); err != nil {
			return nil, 0, err
		}
		total = append(total, time.Since(t).Seconds())
		lut, golden, first = append(lut, w.lutMs), append(golden, w.goldenMs), append(first, w.firstOutMs)
	}
	w.lutMs, w.goldenMs, w.firstOutMs = median(lut), median(golden), median(first)
	return w, median(total), nil
}

// trialOutputter is the CUT capability core uses for per-worker trial
// scratch (the SPICE template path).
type trialOutputter interface {
	OutputScratch(stim *wave.Multitone, out biquad.Output, sc *biquad.SpiceTrialScratch) (wave.Waveform, error)
}

// cutOutput resolves a CUT's observed output the way core does inside
// campaign trials: through the trial scratch when the backend has one.
func cutOutput(sys *core.System, c core.CUT, sc *biquad.SpiceTrialScratch) (wave.Waveform, error) {
	obs := biquad.OutputLP
	if sys.Observe == core.ObserveBP {
		obs = biquad.OutputBP
	}
	if to, ok := c.(trialOutputter); ok {
		return to.OutputScratch(sys.Stimulus, obs, sc)
	}
	return c.Output(sys.Stimulus, obs)
}

// checkCampaign verifies one run's result: internal invariants, the same
// digest as the first run of this process, and the stored reference
// when the seed has one.
func checkCampaign(res *testbench.Result, first, ref *Digest) (Digest, error) {
	d, err := digestOf(res)
	if err != nil {
		return d, err
	}
	switch p := res.Payload.(type) {
	case *testbench.Yield:
		if p.PassCount-p.Escapes+p.Overkill != p.TrueGood || p.PassCount > p.N || p.TrueGood > p.N {
			return d, fmt.Errorf("yield counts inconsistent: %+v", *p)
		}
	case *testbench.Noise:
		if !(p.Threshold > 0) || math.IsInf(p.Threshold, 0) {
			return d, fmt.Errorf("noise threshold %v not positive and finite", p.Threshold)
		}
	}
	if first != nil {
		if err := first.compare(d); err != nil {
			return d, fmt.Errorf("differs from this process's first run: %w", err)
		}
	}
	if ref != nil {
		if err := ref.compare(d); err != nil {
			return d, fmt.Errorf("differs from reference.json: %w", err)
		}
	}
	return d, nil
}

// runCampaign runs a campaign workload: set-up, then either the untraced
// timed loop (end-to-end metrics) or the traced run (per-layer metrics).
func runCampaign(ctx context.Context, cfg runCfg) (*outcome, error) {
	spec, err := campaignSpec(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, params: map[string]any{
		"campaign": spec.Campaign, "backend": spec.Backend, "workers": spec.Workers,
		"trials_per_run": trialsPerRun(spec), "spec_params": spec.Params,
	}}
	var ref *Digest
	if d, ok := cfg.ref.campaignDigest(cfg.workload, cfg.seed); ok {
		ref = &d
		out.notes = append(out.notes, fmt.Sprintf("checking against reference.json seed %d", cfg.seed))
	} else {
		out.notes = append(out.notes, fmt.Sprintf("seed %d has no stored reference: checking run-to-run identity and invariants only", cfg.seed))
	}
	warm, setupS, err := setUp(spec.Backend)
	if err != nil {
		return nil, err
	}
	sys := warm.sys
	if !cfg.trace {
		return out, timedCampaign(ctx, cfg, spec, sys, setupS, ref, out)
	}
	return out, tracedCampaign(ctx, spec, warm, ref, out)
}

// timedCampaign repeats the campaign on the warm system until the run
// time is used up and reports the end-to-end metrics.
func timedCampaign(ctx context.Context, cfg runCfg, spec testbench.Spec, sys *core.System, setupS float64, ref *Digest, out *outcome) error {
	var first *Digest
	var lat []float64
	start := time.Now()
	for len(lat) == 0 || time.Since(start).Seconds() < cfg.seconds {
		t := time.Now()
		res, err := testbench.Run(ctx, spec, testbench.WithSystem(sys))
		lat = append(lat, time.Since(t).Seconds())
		out.attempted++
		if err != nil {
			out.fail("run %d: %v", len(lat), err)
			continue
		}
		d, err := checkCampaign(res, first, ref)
		if err != nil {
			out.fail("run %d: %v", len(lat), err)
			continue
		}
		if first == nil {
			first = &d
		}
	}
	wall := time.Since(start).Seconds()
	// Rates come from the median run, so one run slowed by another
	// process on the host does not move them.
	p50 := median(lat)
	out.metrics["setup_s"] = setupS
	out.metrics["trials_per_s"] = float64(trialsPerRun(spec)) / p50
	out.metrics["jobs_per_s"] = 1 / p50
	out.metrics["job_latency_p50_s"] = p50
	out.notes = append(out.notes, fmt.Sprintf("%d runs of %d trials in %.2fs, run latencies %.3f s", len(lat), trialsPerRun(spec), wall, lat))
	return nil
}

// chunkMeter is a campaign.Meter timing every chunk fold of a run.
type chunkMeter struct {
	mu      sync.Mutex
	started map[int]time.Time
	foldsMs []float64
}

func newChunkMeter() *chunkMeter { return &chunkMeter{started: map[int]time.Time{}} }

func (m *chunkMeter) ReduceStart(workers, trials int) {}

func (m *chunkMeter) ChunkStart(chunk int) {
	now := time.Now()
	m.mu.Lock()
	m.started[chunk] = now
	m.mu.Unlock()
}

func (m *chunkMeter) ChunkDone(chunk, trials int) {
	now := time.Now()
	m.mu.Lock()
	m.foldsMs = append(m.foldsMs, float64(now.Sub(m.started[chunk]))/1e6)
	delete(m.started, chunk)
	m.mu.Unlock()
}

var _ campaign.Meter = (*chunkMeter)(nil)

// tracedCampaign is the traced run: one metered campaign run, then every
// trial of that run decomposed into its layer calls and checked against
// the program's own path and the run's counts.
func tracedCampaign(ctx context.Context, spec testbench.Spec, warm *warmSystem, ref *Digest, out *outcome) error {
	sys := warm.sys
	m := out.metrics
	for _, name := range layerMetricNames() {
		m[name] = 0
	}
	m["monitor.lut_build_ms"] = warm.lutMs
	m["monitor.lut_certified_frac"] = warm.certFrac
	m["core.golden_ms"] = warm.goldenMs
	m["biquad.first_output_ms"] = warm.firstOutMs

	meter := newChunkMeter()
	res, err := testbench.Run(ctx, spec, testbench.WithSystem(sys), testbench.WithMeter(meter))
	out.attempted++
	if err != nil {
		out.fail("metered run: %v", err)
		return nil
	}
	if _, err := checkCampaign(res, nil, ref); err != nil {
		out.fail("metered run: %v", err)
	}
	m["testbench.run_ms"] = float64(res.Elapsed) / 1e6
	m["campaign.chunks"] = float64(len(meter.foldsMs))
	m["campaign.chunk_fold_ms_p50"] = median(meter.foldsMs)
	m["campaign.worker_busy_frac"] = sum(meter.foldsMs) / (float64(res.Elapsed) / 1e6 * benchWorkers)

	t := time.Now()
	if _, err := testbench.CalibrateMultiParam(sys, yieldTol); err != nil {
		return err
	}
	m["testbench.calibrate_ms"] = msSince(t)

	tracers := newTracers(benchWorkers)
	var dec *decomposition
	switch spec.Campaign {
	case "yield":
		dec, err = decomposeYield(sys, spec.Seed, trialsPerRun(spec), tracers)
	default:
		dec, err = decomposeNoise(ctx, sys, spec.Seed, tracers, m)
	}
	if err != nil {
		return err
	}
	out.attempted++
	if err := dec.matches(res); err != nil {
		out.fail("traced decomposition: %v", err)
	} else {
		out.notes = append(out.notes, fmt.Sprintf("traced %d trials: every NDF bit-identical to the program's, counts equal to the run's", dec.trials))
	}
	spans := allSpans(tracers)
	st := aggregate(spans)
	for _, layer := range []string{"biquad.output", "wave.eval", "monitor.classify", "signature.edge", "signature.capture", "rng.noise", "ndf.ndf"} {
		m[layer+"_us"] = st.perTrialUs(layer, dec.trials)
	}
	if dec.trials > 0 {
		m["signature.edge_classify_calls"] = float64(dec.edgeCalls) / float64(dec.trials)
		m["signature.edges"] = float64(dec.edges) / float64(dec.trials)
		m["trace.overhead_us"] = median(dec.overheadNs) / 1e3
	}
	out.spans = spans
	return nil
}

// decomposition is the outcome of replaying a run's trials layer by
// layer: the counts the campaign reports, recomputed, plus the edge
// refinement counts and, per trial, the traced minus the untraced time
// of the same replay.
type decomposition struct {
	trials, mismatches int
	edgeCalls, edges   int64
	overheadNs         []float64
	yield              yieldTally
	noise              *noiseTally
}

// replayTwice runs one trial's replay traced (on tr) and untraced (nil
// tracer), timing each with plain timestamps. alt alternates which runs
// first, so neither side always finds the caches warm. It returns both
// results and records the traced minus the untraced time.
func replayTwice[T any](d *decomposition, tr *Tracer, alt int, replay func(*Tracer) (T, error)) (traced, untraced T, err error) {
	var res [2]T
	var ns [2]int64
	for k := 0; k < 2; k++ {
		side := (alt + k) % 2
		rtr := tr
		if side == 1 {
			rtr = nil
		}
		t := time.Now()
		res[side], err = replay(rtr)
		ns[side] = int64(time.Since(t))
		if err != nil {
			return res[0], res[1], err
		}
	}
	d.overheadNs = append(d.overheadNs, float64(ns[0]-ns[1]))
	return res[0], res[1], nil
}

// yieldTally mirrors the yield campaign's verdict counts.
type yieldTally struct{ trueGood, pass, escapes, overkill int }

func (y *yieldTally) add(o yieldTally) {
	y.trueGood += o.trueGood
	y.pass += o.pass
	y.escapes += o.escapes
	y.overkill += o.overkill
}

// noiseTally mirrors the noise campaign's threshold and counts.
// calibrated is the threshold testbench.CalibrateNullThreshold derives
// from the same null trials.
type noiseTally struct {
	threshold, calibrated float64
	falseAlarms           int
	detect                []int
}

// matches compares the decomposition with the untraced run's result.
func (d *decomposition) matches(res *testbench.Result) error {
	if d.mismatches > 0 {
		return fmt.Errorf("%d of %d trials differ from the program's own NDF", d.mismatches, d.trials)
	}
	switch p := res.Payload.(type) {
	case *testbench.Yield:
		got := yieldTally{p.TrueGood, p.PassCount, p.Escapes, p.Overkill}
		if got != d.yield {
			return fmt.Errorf("yield counts %+v, decomposition %+v", got, d.yield)
		}
	case *testbench.Noise:
		n := d.noise
		if math.Float64bits(p.Threshold) != math.Float64bits(n.threshold) {
			return fmt.Errorf("threshold %.17g, decomposition %.17g", p.Threshold, n.threshold)
		}
		if math.Float64bits(p.Threshold) != math.Float64bits(n.calibrated) {
			return fmt.Errorf("threshold %.17g, CalibrateNullThreshold %.17g", p.Threshold, n.calibrated)
		}
		if c := rateCount(p.FalseRate, noiseTrials); c != int64(n.falseAlarms) {
			return fmt.Errorf("false alarms %d, decomposition %d", c, n.falseAlarms)
		}
		for i, r := range p.Detect {
			if c := rateCount(r, noiseTrials); c != int64(n.detect[i]) {
				return fmt.Errorf("detections at dev %d: %d, decomposition %d", i, c, n.detect[i])
			}
		}
	default:
		return fmt.Errorf("no decomposition for %T", res.Payload)
	}
	return nil
}

// scanGrid is the exact-extraction scan grid core builds: t_i = T·i/ScanN
// for i = 0 … ScanN, with the stimulus sampled on it.
func scanGrid(sys *core.System) (ts, xs []float64) {
	T := sys.Period()
	ts = make([]float64, sys.ScanN+1)
	for i := range ts {
		ts[i] = T * float64(i) / float64(sys.ScanN)
	}
	xs = make([]float64, len(ts))
	wave.EvalInto(sys.Stimulus, ts, xs)
	return ts, xs
}

// transitions counts code changes along a scan — the brackets edge
// refinement bisects.
func transitions(codes []monitor.Code) int64 {
	var n int64
	for i := 1; i < len(codes); i++ {
		if codes[i] != codes[i-1] {
			n++
		}
	}
	return n
}

// decomposeYield replays every die of the yield run through the layer
// calls (CUT output, scan evaluation, LUT classification, exact-edge
// refinement with a counting classifier, NDF) on len(tracers)
// goroutines, once traced and once untraced, checks each die's NDF
// against System.NDFOfScratch, and scores the dies as the campaign does.
func decomposeYield(sys *core.System, seed uint64, dies int, tracers []*Tracer) (*decomposition, error) {
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	gp := sys.Golden()
	scanTs, scanXs := scanGrid(sys)
	T := sys.Period()
	parts := make([]decomposition, len(tracers))
	errs := make([]error, len(tracers))
	var wg sync.WaitGroup
	for g := range tracers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, part := tracers[g], &parts[g]
			ys := make([]float64, len(scanTs))
			codes := make([]monitor.Code, len(scanTs))
			var spiceSc biquad.SpiceTrialScratch
			sc := core.NewTrialScratch()
			// replay is die i's decomposition, recorded on tr.
			replay := func(tr *Tracer, i int) (dieReplay, error) {
				var d dieReplay
				id := int64(i)
				root := tr.Begin("trial", -1, id)
				sp := tr.Begin("biquad.output", root, id)
				cut, err := sys.Deviated(dieDeviation(seed, i))
				if err != nil {
					return d, err
				}
				out, err := cutOutput(sys, cut, &spiceSc)
				tr.End(sp)
				if err != nil {
					return d, err
				}
				p := cut.Params()
				d.truthGood = inBand(p.F0, gp.F0, yieldTol) && inBand(p.Q, gp.Q, 2*yieldTol) && inBand(p.Gain, gp.Gain, yieldTol)
				sp = tr.Begin("wave.eval", root, id)
				wave.EvalInto(out, scanTs, ys)
				tr.End(sp)
				sp = tr.Begin("monitor.classify", root, id)
				sys.Bank.ClassifyBatch(scanXs, ys, codes)
				tr.End(sp)
				d.edges = transitions(codes)
				cls := func(t float64) monitor.Code {
					d.edgeCalls++
					return sys.Bank.Classify(sys.Stimulus.Eval(t), out.Eval(t))
				}
				sp = tr.Begin("signature.edge", root, id)
				sig, err := signature.ExactFromCodes(codes, cls, T, 0)
				tr.End(sp)
				if err != nil {
					return d, err
				}
				sp = tr.Begin("ndf.ndf", root, id)
				d.ndf, err = ndf.NDF(sig, golden)
				tr.End(sp)
				tr.End(root)
				return d, err
			}
			for i := g; i < dies; i += len(tracers) {
				d, plain, err := replayTwice(part, tr, i/len(tracers), func(tr *Tracer) (dieReplay, error) { return replay(tr, i) })
				if err != nil {
					errs[g] = err
					return
				}
				cut, err := sys.Deviated(dieDeviation(seed, i))
				if err != nil {
					errs[g] = err
					return
				}
				v, err := sys.NDFOfScratch(cut, sc)
				if err != nil {
					errs[g] = err
					return
				}
				part.edges += d.edges
				part.edgeCalls += d.edgeCalls
				part.trials++
				if math.Float64bits(d.ndf) != math.Float64bits(v) || math.Float64bits(plain.ndf) != math.Float64bits(v) {
					part.mismatches++
				}
				part.yield.add(verdict(d.truthGood, d.ndf <= yieldThreshold))
			}
		}(g)
	}
	wg.Wait()
	total := &decomposition{}
	for g := range parts {
		if errs[g] != nil {
			return nil, errs[g]
		}
		total.merge(&parts[g])
	}
	return total, nil
}

// dieReplay is what the layer-by-layer replay of one die yields.
type dieReplay struct {
	ndf              float64
	truthGood        bool
	edges, edgeCalls int64
}

// dieDeviation is die i's component drift in the yield campaign seeded
// with seed: the campaign draws it from the die's private substream
// rng.NewSub(seed, i), in this field order.
func dieDeviation(seed uint64, i int) core.Deviation {
	s := rng.NewSub(seed, uint64(i))
	return core.Deviation{
		RDrift:  s.Gauss(0, yieldSigma),
		RQDrift: s.Gauss(0, yieldSigma),
		RGDrift: s.Gauss(0, yieldSigma),
		CDrift:  s.Gauss(0, yieldSigma),
	}
}

// inBand is the yield campaign's spec test: val within ±frac of nom.
func inBand(val, nom, frac float64) bool {
	return val >= nom*(1-frac) && val <= nom*(1+frac)
}

// verdict scores one die the way the yield campaign does.
func verdict(truthGood, pass bool) yieldTally {
	var y yieldTally
	if truthGood {
		y.trueGood++
	}
	if pass {
		y.pass++
	}
	switch {
	case pass && !truthGood:
		y.escapes++
	case !pass && truthGood:
		y.overkill++
	}
	return y
}

// merge adds another goroutine's partial decomposition.
func (d *decomposition) merge(o *decomposition) {
	d.trials += o.trials
	d.mismatches += o.mismatches
	d.edgeCalls += o.edgeCalls
	d.edges += o.edges
	d.overheadNs = append(d.overheadNs, o.overheadNs...)
	d.yield.add(o.yield)
}

// noisePhase is one measurement phase of the noise campaign: the f0
// shift measured and the phase's stream-id base. The campaign gives
// phase p the ids p<<32 + i (testbench's phaseBase), so phases never
// share draws.
type noisePhase struct {
	shift float64
	base  uint64
}

func noisePhases() []noisePhase {
	ps := []noisePhase{{0, 0}, {0, 1 << 32}}
	for i, d := range noiseDevs {
		ps = append(ps, noisePhase{d, uint64(2+i) << 32})
	}
	return ps
}

// decomposeNoise replays every trial of the noise run through the layer
// calls (CUT output, tick-grid evaluation, measurement-noise draws, LUT
// classification, clocked capture, NDF), once traced and once untraced,
// checks each trial's averaged NDF against System.AveragedNDFScratch,
// recomputes the max-quantile threshold and the counts, and times
// testbench.CalibrateNullThreshold on the same null trials.
func decomposeNoise(ctx context.Context, sys *core.System, seed uint64, tracers []*Tracer, m map[string]float64) (*decomposition, error) {
	golden, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	T := sys.Period()
	n, err := sys.Capture.Ticks(T)
	if err != nil {
		return nil, err
	}
	tickTs := make([]float64, n)
	for k := range tickTs {
		tickTs[k] = float64(k) * (1 / sys.Capture.ClockHz)
	}
	tickXs := make([]float64, n)
	wave.EvalInto(sys.Stimulus, tickTs, tickXs)
	eff := core.EffectiveNoiseSigma(noiseSigma)

	total := &decomposition{noise: &noiseTally{}}
	var threshold ndf.Decision
	for pi, ph := range noisePhases() {
		cut, err := sys.Shifted(ph.shift)
		if err != nil {
			return nil, err
		}
		trials := noiseTrials
		if pi == 0 {
			trials = noiseNull
		}
		vals := make([]float64, trials)
		parts := make([]decomposition, len(tracers))
		errs := make([]error, len(tracers))
		var wg sync.WaitGroup
		for g := range tracers {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tr, part := tracers[g], &parts[g]
				ybase := make([]float64, n)
				xv, yv := make([]float64, n), make([]float64, n)
				var buf signature.CaptureBuffer
				var spiceSc biquad.SpiceTrialScratch
				sc := core.NewTrialScratch()
				streams := make([]*rng.Stream, noisePeriods)
				// replay is trial i's decomposition, recorded on tr: the
				// NDF averaged over noisePeriods measurements.
				replay := func(tr *Tracer, i int) (float64, error) {
					id := int64(ph.base) + int64(i)
					root := tr.Begin("trial", -1, id)
					sp := tr.Begin("biquad.output", root, id)
					out, err := cutOutput(sys, cut, &spiceSc)
					tr.End(sp)
					if err != nil {
						return 0, err
					}
					sp = tr.Begin("wave.eval", root, id)
					wave.EvalInto(out, tickTs, ybase)
					tr.End(sp)
					sp = tr.Begin("rng.noise", root, id)
					noise := rng.NewSub(seed, ph.base+uint64(i))
					for k := range streams {
						streams[k] = noise.Split(uint64(k))
					}
					tr.End(sp)
					acc := 0.0
					for k := 0; k < noisePeriods; k++ {
						src := streams[k]
						sp = tr.Begin("rng.noise", root, id)
						for j := 0; j < n; j++ {
							xv[j] = tickXs[j] + src.Gauss(0, eff)
							yv[j] = ybase[j] + src.Gauss(0, eff)
						}
						tr.End(sp)
						codes := buf.Codes(n)
						sp = tr.Begin("monitor.classify", root, id)
						sys.Bank.ClassifyBatch(xv, yv, codes)
						tr.End(sp)
						sp = tr.Begin("signature.capture", root, id)
						obs, err := signature.CaptureCanonicalCodes(codes, T, sys.Capture, &buf)
						tr.End(sp)
						if err != nil {
							return 0, err
						}
						sp = tr.Begin("ndf.ndf", root, id)
						v, err := ndf.NDF(obs, golden)
						tr.End(sp)
						if err != nil {
							return 0, err
						}
						acc += v
					}
					tr.End(root)
					return acc / noisePeriods, nil
				}
				for i := g; i < trials; i += len(tracers) {
					v, plain, err := replayTwice(part, tr, i/len(tracers), func(tr *Tracer) (float64, error) { return replay(tr, i) })
					if err != nil {
						errs[g] = err
						return
					}
					v2, err := sys.AveragedNDFScratch(cut, noiseSigma, rng.NewSub(seed, ph.base+uint64(i)), noisePeriods, sc)
					if err != nil {
						errs[g] = err
						return
					}
					part.trials++
					if math.Float64bits(v) != math.Float64bits(v2) || math.Float64bits(plain) != math.Float64bits(v2) {
						part.mismatches++
					}
					vals[i] = v
				}
			}(g)
		}
		wg.Wait()
		for g := range parts {
			if errs[g] != nil {
				return nil, errs[g]
			}
			total.merge(&parts[g])
		}
		if pi == 0 {
			if threshold, err = ndf.ThresholdFromNull(vals, 1.0); err != nil {
				return nil, err
			}
			total.noise.threshold = threshold.Threshold
			continue
		}
		exceed := 0
		for _, v := range vals {
			if !threshold.Pass(v) {
				exceed++
			}
		}
		if pi == 1 {
			total.noise.falseAlarms = exceed
		} else {
			total.noise.detect = append(total.noise.detect, exceed)
		}
	}

	// The calibration layer itself, on the same null trials.
	cut0, err := sys.Shifted(0)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	cal, err := testbench.CalibrateNullThreshold(ctx, campaign.Engine{Workers: benchWorkers, Seed: seed}, noiseNull, 0,
		func(i int, sc *core.TrialScratch) (float64, error) {
			return sys.AveragedNDFScratch(cut0, noiseSigma, rng.NewSub(seed, uint64(i)), noisePeriods, sc)
		})
	if err != nil {
		return nil, err
	}
	m["testbench.null_calibration_s"] = time.Since(t).Seconds()
	total.noise.calibrated = cal.Threshold
	return total, nil
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
