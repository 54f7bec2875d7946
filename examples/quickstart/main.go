// Quickstart: build the paper's reference system, capture the digital
// signature of a CUT with a +10% natural-frequency deviation, and make a
// pass/fail decision with a ±5% tolerance specification.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ndf"
)

func main() {
	// The reference system: multitone stimulus into a 10 kHz low-pass
	// Biquad, observed by the six Table I monitors, captured with a
	// 10 MHz clock and 16-bit dwell counter.
	sys := core.Default()

	// Calibrate the acceptance threshold so that CUTs within ±5% of the
	// nominal f0 pass (the Fig. 8 PASS band construction). The sweep
	// fans out on the default campaign engine (all CPUs).
	decision, err := sys.CalibrateFromTolerance(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acceptance threshold: NDF <= %.4f\n\n", decision.Threshold)

	// Test three CUTs: golden, a +3% marginal device, and the paper's
	// +10% example.
	for _, shift := range []float64{0, 0.03, 0.10} {
		cut, err := sys.Shifted(shift)
		if err != nil {
			log.Fatal(err)
		}
		result, err := sys.Test(cut, decision, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "PASS"
		if !result.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("CUT f0 %+5.1f%%: NDF = %.4f -> %s\n", shift*100, result.NDF, verdict)
	}

	// Show the captured signature of the +10% CUT the way the paper
	// writes it (Eq. 1).
	deviated, err := sys.Shifted(0.10)
	if err != nil {
		log.Fatal(err)
	}
	sig, err := sys.CapturedSignature(deviated, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n+10%% signature, %d zone intervals over %.0f µs:\n",
		sig.NumZones(), sig.Period*1e6)
	for _, e := range sig.Entries {
		fmt.Printf("  zone %s  for %7.2f µs\n", sys.Bank.FormatCode(e.Code), e.Dur*1e6)
	}

	golden, err := sys.GoldenSignature()
	if err != nil {
		log.Fatal(err)
	}
	v, err := ndf.NDF(sig, golden)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNDF = %.4f (paper reports 0.1021 for this experiment)\n", v)
}
