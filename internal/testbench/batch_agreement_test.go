package testbench

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/ndf"
	"repro/internal/rng"
)

// referenceSystem returns the paper's system on the named backend with its
// bank rebuilt from the same monitors, each wrapped in an anonymous
// struct. The wrapped monitors are not *monitor.Analytic, so the bank
// builds no zone LUT and every code of every campaign comes from the
// exact per-point Bank.Classify — the reference baseline.
func referenceSystem(t *testing.T, backend string) *core.System {
	t.Helper()
	sys, err := core.SystemForBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	ms := sys.Bank.Monitors()
	wrapped := make([]monitor.Monitor, len(ms))
	for i, m := range ms {
		wrapped[i] = struct{ monitor.Monitor }{m}
	}
	sys.Bank = monitor.NewBank(wrapped...)
	if sys.Bank.HasLUT() {
		t.Fatal("wrapped reference bank built a zone LUT")
	}
	return sys
}

func batchedSystem(t *testing.T, backend string) *core.System {
	t.Helper()
	sys, err := core.SystemForBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFaultTableScalarVsBatched: the component-fault campaign must
// produce the reference's NDFs and verdicts at any worker count.
func TestFaultTableScalarVsBatched(t *testing.T) {
	dec := ndf.Decision{Threshold: 0.02}
	faults := DefaultFaultSet()
	want, err := runFaultTable(context.Background(), referenceSystem(t, "analytic"), dec, faults, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := runFaultTable(context.Background(), batchedSystem(t, "analytic"), dec, faults, campaign.Engine{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cases) != len(want.Cases) {
			t.Fatalf("workers %d: %d cases vs %d", workers, len(got.Cases), len(want.Cases))
		}
		for i := range want.Cases {
			if got.Cases[i].NDF != want.Cases[i].NDF || got.Cases[i].Detected != want.Cases[i].Detected {
				t.Fatalf("workers %d, fault %s: batched (%v, %v), reference (%v, %v)",
					workers, want.Cases[i].Fault,
					got.Cases[i].NDF, got.Cases[i].Detected,
					want.Cases[i].NDF, want.Cases[i].Detected)
			}
		}
	}
}

// TestYieldScalarVsBatched: the production-yield simulation must score
// exactly as on the reference.
func TestYieldScalarVsBatched(t *testing.T) {
	dec := ndf.Decision{Threshold: 0.03}
	want, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 7, Params: YieldParams{N: 40, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}}, WithSystem(referenceSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runAs[Yield](context.Background(), Spec{Campaign: "yield", Seed: 7, Params: YieldParams{N: 40, ComponentSigma: 0.02, Tol: 0.05, Threshold: &dec.Threshold}}, WithSystem(batchedSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	if got.TrueGood != want.TrueGood || got.PassCount != want.PassCount ||
		got.Escapes != want.Escapes || got.Overkill != want.Overkill {
		t.Fatalf("batched %+v, reference %+v", got, want)
	}
}

// TestNoiseDetectionScalarVsBatched: the noisy averaged-NDF campaign —
// the heaviest consumer of the capture path — must produce identical
// detection rates and thresholds.
func TestNoiseDetectionScalarVsBatched(t *testing.T) {
	want, err := runAs[Noise](context.Background(), Spec{Campaign: "noise", Seed: 42, Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.02}, NullTrials: 4, Trials: 4}}, WithSystem(referenceSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runAs[Noise](context.Background(), Spec{Campaign: "noise", Seed: 42, Params: NoiseParams{Sigma: 0.005, Devs: []float64{0.02}, NullTrials: 4, Trials: 4}}, WithSystem(batchedSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != want.Threshold || got.FalseRate != want.FalseRate {
		t.Fatalf("threshold/false-rate: batched (%v, %v), reference (%v, %v)",
			got.Threshold, got.FalseRate, want.Threshold, want.FalseRate)
	}
	for i := range want.Detect {
		if got.Detect[i] != want.Detect[i] {
			t.Fatalf("detect[%d]: batched %v, reference %v", i, got.Detect[i], want.Detect[i])
		}
	}
}

// TestSpiceBackendScalarVsBatched: the same reference agreement on the
// SPICE netlist backend (reduced campaign — the transient dominates the
// runtime, so -short skips it like the other SPICE campaigns).
func TestSpiceBackendScalarVsBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("SPICE campaign in -short mode")
	}
	shifts := []float64{-0.10, 0, 0.10}
	want, err := referenceSystem(t, "spice").SweepF0(context.Background(), shifts, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := batchedSystem(t, "spice").SweepF0(context.Background(), shifts, campaign.Engine{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift %g: batched %v, reference %v", shifts[i], got[i], want[i])
		}
	}
	// One noisy averaged capture on the netlist engine.
	sysB, sysS := batchedSystem(t, "spice"), referenceSystem(t, "spice")
	cb, err := sysB.Shifted(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sysS.Shifted(0.05)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sysB.AveragedNDFScratch(cb, 0.005, rng.New(33), 2, core.NewTrialScratch())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sysS.AveragedNDFScratch(cs, 0.005, rng.New(33), 2, core.NewTrialScratch())
	if err != nil {
		t.Fatal(err)
	}
	if vb != vs {
		t.Fatalf("spice AveragedNDF: batched %v, reference %v", vb, vs)
	}
}

// TestCounterAblationMatchesReference: the counter ablation's per-cell
// tick-grid captures must reproduce the reference's quantization errors
// exactly.
func TestCounterAblationMatchesReference(t *testing.T) {
	spec := Spec{Campaign: "counter", Params: CounterParams{Shift: 0.10, Bits: []int{8, 16}, Clocks: []float64{1e6, 10e6}}}
	want, err := Run(context.Background(), spec, WithSystem(referenceSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), spec, WithSystem(batchedSystem(t, "analytic")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Fatalf("batched:\n%s\nreference:\n%s", got.Text, want.Text)
	}
}
