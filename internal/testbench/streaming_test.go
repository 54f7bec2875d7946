package testbench

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/rng"
)

// Satellite regression for the yield.go stream fix: the streaming
// in-worker derivation must reproduce, bit for bit, the old seeding
// order — all per-die streams derived serially up front, all verdicts
// materialized in a slice and folded afterwards — at every worker count
// and chunk size. Engine.Stream is a pure function of (seed, die), so
// moving the derivation inside the pool must not move a single draw.
func TestYieldStreamingMatchesSerialPrepass(t *testing.T) {
	s := sys()
	dec := ndf.Decision{Threshold: 0.03}
	const (
		n     = 60
		sigma = 0.02
		tol   = 0.05
		seed  = 7
	)
	// Pin the seeding order itself: PR 5 moved yield from the stateful
	// rng.New(seed).Split(i) pre-pass to the pure Engine.Stream(i) ==
	// rng.NewSub(seed, i) derivation (the published numbers moved once,
	// deliberately, with the campaign re-baselined on it). These golden
	// draws freeze the new order — a future change to Engine.Stream or
	// NewSub would silently re-draw every campaign, and must fail here
	// instead.
	for i, want := range []uint64{0x417d92f18561f76e, 0xc231a6a1d266fe61, 0xc3b80e9da8ce88cc} {
		if got := (campaign.Engine{Seed: seed}).Stream(i).Uint64(); got != want {
			t.Fatalf("Engine.Stream(%d) first draw = %#x, want %#x — the campaign seeding order changed", i, got, want)
		}
	}
	// Serial reference: the pre-refactor shape of runYield — an O(n)
	// stream pre-pass in die order, one result slot per die.
	golden := s.Golden()
	if _, err := s.GoldenSignature(); err != nil {
		t.Fatal(err)
	}
	streams := make([]*rng.Stream, n)
	for i := range streams {
		streams[i] = (campaign.Engine{Seed: seed}).Stream(i)
	}
	want := &Yield{N: n}
	sc := core.NewTrialScratch()
	for i := 0; i < n; i++ {
		st := streams[i]
		cut, err := s.Deviated(core.Deviation{
			RDrift:  st.Gauss(0, sigma),
			RQDrift: st.Gauss(0, sigma),
			RGDrift: st.Gauss(0, sigma),
			CDrift:  st.Gauss(0, sigma),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := cut.Params()
		inBand := func(val, nom, frac float64) bool {
			return val >= nom*(1-frac) && val <= nom*(1+frac)
		}
		truthGood := inBand(p.F0, golden.F0, tol) &&
			inBand(p.Q, golden.Q, 2*tol) &&
			inBand(p.Gain, golden.Gain, tol)
		v, err := s.NDFOfScratch(cut, sc)
		if err != nil {
			t.Fatal(err)
		}
		pass := dec.Pass(v)
		if truthGood {
			want.TrueGood++
		}
		if pass {
			want.PassCount++
		}
		switch {
		case pass && !truthGood:
			want.Escapes++
		case !pass && truthGood:
			want.Overkill++
		}
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		for _, chunk := range []int{0, 7, 64} {
			got, err := runAs[Yield](context.Background(), Spec{
				Campaign: "yield",
				Seed:     seed,
				Workers:  w,
				Chunk:    chunk,
				Params:   YieldParams{N: n, ComponentSigma: sigma, Tol: tol, Threshold: &dec.Threshold},
			}, WithSystem(sys()))
			if err != nil {
				t.Fatal(err)
			}
			if got.TrueGood != want.TrueGood || got.PassCount != want.PassCount ||
				got.Escapes != want.Escapes || got.Overkill != want.Overkill {
				t.Fatalf("workers=%d chunk=%d: streamed %+v, serial pre-pass reference %+v",
					w, chunk, got, want)
			}
		}
	}
}

// The streamed fault table must keep its rows in fault order and agree
// across worker counts and chunk sizes on both CUT backends — the merge
// order of the reduction is trial order, whatever the scheduling.
func TestFaultTableStreamingOrderAcrossBackends(t *testing.T) {
	for _, backend := range core.Backends() {
		if backend == "spice" && testing.Short() {
			continue // the netlist engine is too slow for -short
		}
		s, err := core.SystemForBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		faults := []biquad.Fault{
			{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: 0.10},
			{Kind: biquad.FaultOpen, Target: biquad.TargetRQ},
			{Kind: biquad.FaultShort, Target: biquad.TargetC},
			{Kind: biquad.FaultParametric, Target: biquad.TargetC, Frac: -0.10},
		}
		dec := ndf.Decision{Threshold: 0.02}
		ref, err := runFaultTable(context.Background(), s, dec, faults, campaign.Engine{Workers: 1, Chunk: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Cases) != len(faults) {
			t.Fatalf("%s: %d cases for %d faults", backend, len(ref.Cases), len(faults))
		}
		for i := range ref.Cases {
			if ref.Cases[i].Fault != faults[i] {
				t.Fatalf("%s: row %d holds fault %s, want %s", backend, i, ref.Cases[i].Fault, faults[i])
			}
		}
		for _, w := range []int{2, runtime.NumCPU()} {
			got, err := runFaultTable(context.Background(), s, dec, faults, campaign.Engine{Workers: w, Chunk: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Cases {
				if got.Cases[i] != ref.Cases[i] {
					t.Fatalf("%s workers=%d: row %d differs from serial run", backend, w, i)
				}
			}
		}
		// Coverage interval brackets the point estimate.
		if c := ref.Coverage(); c < ref.CoverageLo || c > ref.CoverageHi {
			t.Fatalf("%s: coverage CI [%v, %v] excludes %v", backend, ref.CoverageLo, ref.CoverageHi, c)
		}
	}
}

// Cancellation and progress under the streaming engine, on both
// backends: cancelling mid-chunk returns context.Canceled promptly,
// leaks no goroutines, and the progress stream observed up to that
// point never decreased.
func TestStreamingCancelAndProgressBothBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation soak skipped in -short mode")
	}
	for _, backend := range core.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var mu sync.Mutex
			last := 0
			var once sync.Once
			started := make(chan struct{})
			errCh := make(chan error, 1)
			go func() {
				// A population only cancellation ends in reasonable time;
				// chunk 1 makes progress tick (and cancellation points)
				// per-die.
				thr := 0.03
				_, err := Run(ctx, Spec{
					Campaign: "yield",
					Backend:  backend,
					Seed:     3,
					Chunk:    1,
					Params:   YieldParams{N: 1_000_000, ComponentSigma: 0.02, Tol: 0.05, Threshold: &thr},
				}, WithProgress(func(done, total int) {
					mu.Lock()
					if done < last {
						t.Errorf("progress went backwards: %d after %d", done, last)
					}
					last = done
					mu.Unlock()
					once.Do(func() { close(started) })
				}))
				errCh <- err
			}()
			<-started
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancellation not honoured within 30s")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Fatalf("%d goroutines after cancel, started with %d", got, before)
			}
		})
	}
}

// The registry's trial-count knob: production-scale specs validate,
// absurd ones fail loudly before any work starts.
func TestTrialsKnobValidation(t *testing.T) {
	ok := Spec{Campaign: "yield", Params: YieldParams{N: 10_000_000, ComponentSigma: 0.02, Tol: 0.05}}
	if err := Validate(ok); err != nil {
		t.Fatalf("10M-trial yield spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Campaign: "yield", Params: YieldParams{N: 0, ComponentSigma: 0.02, Tol: 0.05}},
		{Campaign: "yield", Params: YieldParams{N: MaxTrials + 1, ComponentSigma: 0.02, Tol: 0.05}},
		{Campaign: "noise", Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.01}, NullTrials: 4, Trials: -1}},
		{Campaign: "noise", Params: NoiseParams{Sigma: -1, Devs: []float64{0.01}, NullTrials: 4, Trials: 4}},
		{Campaign: "noisesweep", Params: NoiseSweepParams{Sigmas: []float64{0.005}, DevGrid: []float64{0.01}, Trials: MaxTrials * 2}},
		{Campaign: "fig4mc", Params: Fig4MCParams{Monitor: 2, Dies: 0, Cols: 5}},
		{Campaign: "yield", Chunk: -1},
	} {
		if err := Validate(bad); err == nil {
			t.Fatalf("spec %+v validated", bad)
		}
	}
	// Run applies the same gate: the bad spec never reaches the campaign.
	if _, err := Run(context.Background(), Spec{
		Campaign: "yield",
		Params:   YieldParams{N: -5, ComponentSigma: 0.02, Tol: 0.05},
	}); err == nil {
		t.Fatal("Run accepted a negative trial count")
	}
	if _, err := Run(context.Background(), Spec{Campaign: "table1", Chunk: -1}); err == nil {
		t.Fatal("Run accepted a negative chunk the HTTP gate rejects")
	}
}

// The size knobs — 1-D point and column counts, 2-D grid sides — are
// bounded like the trial counts: an oversize or negative value fails
// Validate and Run before the campaign allocates anything (a fig4mc spec
// with cols = 1<<40 used to die with an unrecoverable out-of-memory
// inside the envelope fold), while every registry default still runs.
func TestSizeKnobValidation(t *testing.T) {
	for _, name := range Names() {
		if err := Validate(Spec{Campaign: name}); err != nil {
			t.Fatalf("%s defaults rejected: %v", name, err)
		}
	}
	for _, bad := range []Spec{
		{Campaign: "fig1", Params: Fig1Params{Shift: 0.1, Points: 1 << 40}},
		{Campaign: "fig4", Params: Fig4Params{Points: MaxPoints + 1}},
		{Campaign: "fig4spice", Params: Fig4SpiceParams{Cols: 1 << 40}},
		{Campaign: "fig4mc", Params: Fig4MCParams{Monitor: 2, Dies: 10, Cols: 1 << 40}},
		{Campaign: "fig6", Params: Fig6Params{Shift: 0.1, Grid: 1 << 30}},
		{Campaign: "fig7", Params: Fig7Params{Shift: 0.1, Points: 1 << 40}},
		{Campaign: "fig7", Params: Fig7Params{Shift: 0.1, Points: -1}},
		{Campaign: "fig8", Params: Fig8Params{MaxDev: 0.2, Points: 1 << 40, Tol: 0.05}},
		{Campaign: "stimopt", Params: StimOptParams{Shift: 0.05, Grid: MaxGridSide + 1}},
		{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: []int{16}, Clocks: []float64{1e13}}},
		{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: []int{16}, Clocks: []float64{0}}},
		{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: []int{16}, Clocks: []float64{-1e6}}},
		{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: []int{0}, Clocks: []float64{1e6}}},
		{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: []int{33}, Clocks: []float64{1e6}}},
		{Campaign: "counter", Params: CounterParams{Shift: 0.1, Bits: make([]int, 200), Clocks: make([]float64, 100)}},
	} {
		if err := Validate(bad); err == nil {
			t.Fatalf("oversize spec %+v validated", bad)
		}
		if _, err := Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "bad params") {
			t.Fatalf("Run on oversize spec %+v: err = %v, want a bad-params rejection", bad, err)
		}
	}
}

// The noise detection campaign (null calibration + streamed detection
// counts) is bit-identical across worker counts — its render string is
// a full fingerprint of threshold, false-alarm and detection rates.
func TestNoiseDetectionStreamingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("noise campaign too slow for -short")
	}
	run := func(w, chunk int) *Noise {
		t.Helper()
		nz, err := runAs[Noise](context.Background(), Spec{
			Campaign: "noise",
			Seed:     9,
			Workers:  w,
			Chunk:    chunk,
			Params:   NoiseParams{Sigma: 0.005, Devs: []float64{0.02}, NullTrials: 6, Trials: 6},
		}, WithSystem(sys()))
		if err != nil {
			t.Fatal(err)
		}
		return nz
	}
	ref := run(1, 0)
	for _, w := range []int{2, runtime.NumCPU()} {
		if got := run(w, 0); got.Render() != ref.Render() {
			t.Fatalf("workers=%d: render differs from workers=1", w)
		}
	}
	// Integer detection counts are exactly associative, so even the
	// chunk size cannot move them.
	if got := run(2, 2); got.Render() != ref.Render() {
		t.Fatal("chunk size changed the detection counts")
	}
}
