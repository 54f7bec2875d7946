package testbench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/biquad"
	"repro/internal/campaign"
	"repro/internal/core"
)

func TestExtQBandpassSeesQ(t *testing.T) {
	e, err := runAs[ExtQ](context.Background(), Spec{Campaign: "q", Params: QParams{Devs: []float64{-0.30, -0.15, 0.15, 0.30}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	// Band-pass observation must react to Q deviations.
	for i, d := range e.Devs {
		if e.BPNDF[i] <= 0 {
			t.Fatalf("BP observation blind to Q deviation %v", d)
		}
	}
	if !strings.Contains(e.Render(), "Q-verification") {
		t.Fatal("render malformed")
	}
}

func TestDualObservationSeparatesQFromF0(t *testing.T) {
	// The point of adding the band-pass observation: a Q fault and an
	// f0 fault produce clearly different (LP, BP) NDF ratios, so the
	// pair diagnoses which parameter moved — single-output observation
	// cannot do that.
	s := sys()
	bpSys, err := core.NewSystem(s.Stimulus, s.CUT, s.Bank, s.Capture)
	if err != nil {
		t.Fatal(err)
	}
	bpSys.Observe = core.ObserveBP

	ratio := func(dev core.Deviation) float64 {
		lp, err := s.NDFOfDeviation(dev)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := bpSys.NDFOfDeviation(dev)
		if err != nil {
			t.Fatal(err)
		}
		if lp == 0 {
			t.Fatal("LP NDF zero for a faulty CUT")
		}
		return bp / lp
	}
	rQ := ratio(core.Deviation{QShift: 0.3})
	rF0 := ratio(core.Deviation{F0Shift: 0.10})
	if rQ/rF0 < 1.3 && rF0/rQ < 1.3 {
		t.Fatalf("BP/LP ratios too similar to diagnose: Q fault %v vs f0 fault %v", rQ, rF0)
	}
}

func TestExtQMonotoneAwayFromZero(t *testing.T) {
	e, err := runAs[ExtQ](context.Background(), Spec{Campaign: "q", Params: QParams{Devs: []float64{0.10, 0.20, 0.40}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if !(e.BPNDF[0] < e.BPNDF[1] && e.BPNDF[1] < e.BPNDF[2]) {
		t.Fatalf("BP NDF not increasing with Q deviation: %v", e.BPNDF)
	}
}

func TestDefaultFaultSet(t *testing.T) {
	fs := DefaultFaultSet()
	if len(fs) != 16 { // 4 targets × (2 parametric + open + short)
		t.Fatalf("fault set size = %d, want 16", len(fs))
	}
	para, cata := 0, 0
	for _, f := range fs {
		if f.Kind == biquad.FaultParametric {
			para++
		} else {
			cata++
		}
	}
	if para != 8 || cata != 8 {
		t.Fatalf("fault mix = %d parametric, %d catastrophic", para, cata)
	}
}

func TestFaultTableCampaign(t *testing.T) {
	s := sys()
	dec, err := s.CalibrateFromTolerance(context.Background(), 0.05, 9, campaign.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := runAs[FaultTable](context.Background(), Spec{Campaign: "faults", Params: FaultsParams{Threshold: &dec.Threshold, Faults: DefaultFaultSet()}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cases) != 16 {
		t.Fatalf("cases = %d", len(tab.Cases))
	}
	// All catastrophic faults must be detected.
	for _, c := range tab.Cases {
		if c.Fault.Kind != biquad.FaultParametric && !c.Detected {
			t.Fatalf("catastrophic fault %s escaped (NDF %v)", c.Fault, c.NDF)
		}
	}
	// ±10% R and C faults move f0 by ~10% > 5% tolerance -> detected.
	for _, c := range tab.Cases {
		if c.Fault.Kind == biquad.FaultParametric &&
			(c.Fault.Target == biquad.TargetR || c.Fault.Target == biquad.TargetC) &&
			!c.Detected {
			t.Fatalf("f0-moving fault %s escaped (NDF %v)", c.Fault, c.NDF)
		}
	}
	if cov := tab.Coverage(); cov < 0.7 {
		t.Fatalf("coverage = %v, implausibly low", cov)
	}
	r := tab.Render()
	if !strings.Contains(r, "coverage") || !strings.Contains(r, "open(RQ)") {
		t.Fatalf("render malformed:\n%s", r)
	}
}

func TestFaultTableThresholdSensitivity(t *testing.T) {
	s := sys()
	// An absurdly high threshold detects nothing.
	huge, zero := 10.0, 0.0
	tab, err := runAs[FaultTable](context.Background(), Spec{Campaign: "faults", Params: FaultsParams{Threshold: &huge, Faults: DefaultFaultSet()}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Coverage() != 0 {
		t.Fatalf("coverage with huge threshold = %v, want 0", tab.Coverage())
	}
	// A zero threshold detects everything (every fault moves something).
	tab0, err := runAs[FaultTable](context.Background(), Spec{Campaign: "faults", Params: FaultsParams{Threshold: &zero, Faults: DefaultFaultSet()}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if tab0.Coverage() != 1 {
		t.Fatalf("coverage with zero threshold = %v, want 1", tab0.Coverage())
	}
}
