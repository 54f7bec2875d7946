package testbench

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/campaign"
)

// The campaign engine's contract: every parallelized study renders
// byte-identical output at workers=1 and workers=NumCPU (and any count
// between). These are regression tests for the paper's reproducibility
// claim — all figures and tables are bit-reproducible run to run — now
// exercised through the declarative spec path, so the registry's worker
// knob is covered by the same contract.

func workerCounts() []int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 8 // still exercises the concurrent pool path on one CPU
	}
	return []int{1, 2, n}
}

func TestSweepF0DeterministicAcrossWorkers(t *testing.T) {
	devs := []float64{-0.10, -0.05, 0, 0.05, 0.10}
	ctx := context.Background()
	ref, err := sys().SweepF0(ctx, devs, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts()[1:] {
		got, err := sys().SweepF0(ctx, devs, campaign.Engine{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: NDF[%d] = %v, want %v", w, i, got[i], ref[i])
			}
		}
	}
}

func TestFig4MCDeterministicAcrossWorkers(t *testing.T) {
	run := func(w int) *Fig4MC {
		t.Helper()
		env, err := runAs[Fig4MC](context.Background(), Spec{
			Campaign: "fig4mc",
			Seed:     7,
			Workers:  w,
			Params:   Fig4MCParams{Monitor: 2, Dies: 40, Cols: 15},
		})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	ref := run(1)
	// The default worker bound (all CPUs) must agree exactly too.
	auto, err := runAs[Fig4MC](context.Background(), Spec{Campaign: "fig4mc", Seed: 7, Params: Fig4MCParams{Monitor: 2, Dies: 40, Cols: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Render() != ref.Render() {
		t.Fatal("default worker bound differs from workers=1")
	}
	for _, w := range workerCounts()[1:] {
		got := run(w)
		if got.Render() != ref.Render() {
			t.Fatalf("workers=%d: Render differs from workers=1", w)
		}
		if got.CSV() != ref.CSV() {
			t.Fatalf("workers=%d: CSV differs from workers=1", w)
		}
	}
}

func TestNoiseSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("noise campaign too slow for -short")
	}
	run := func(w int) *NoiseSweep {
		t.Helper()
		ns, err := runAs[NoiseSweep](context.Background(), Spec{
			Campaign: "noisesweep",
			Seed:     7,
			Workers:  w,
			Params:   NoiseSweepParams{Sigmas: []float64{0.005}, DevGrid: []float64{0.01, 0.02}, Trials: 4},
		}, WithSystem(sys()))
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	ref := run(1)
	auto, err := runAs[NoiseSweep](context.Background(), Spec{Campaign: "noisesweep", Seed: 7, Params: NoiseSweepParams{Sigmas: []float64{0.005}, DevGrid: []float64{0.01, 0.02}, Trials: 4}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Render() != ref.Render() {
		t.Fatal("default worker bound differs from workers=1")
	}
	for _, w := range workerCounts()[1:] {
		if got := run(w); got.Render() != ref.Render() {
			t.Fatalf("workers=%d: Render differs from workers=1", w)
		}
	}
}
