package testbench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/rng"
	"repro/internal/stat"
)

func TestAblMetricNDFFinerThanEdit(t *testing.T) {
	a, err := runAs[AblMetric](context.Background(), Spec{Campaign: "metric", Params: MetricParams{Devs: []float64{-0.10, -0.05, -0.02, -0.005, 0.005, 0.02, 0.05, 0.10}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	// NDF responds at every nonzero deviation.
	for i, d := range a.Devs {
		if d != 0 && a.NDFs[i] <= 0 {
			t.Fatalf("NDF blind at %v", d)
		}
	}
	nr, er := a.SmallestMoved()
	// The time-weighted metric must resolve deviations at least as small
	// as the sequence metric (it sees dwell warps the sequence misses).
	if nr > er {
		t.Fatalf("NDF resolution %v coarser than edit distance %v", nr, er)
	}
	if !strings.Contains(a.Render(), "metric ablation") {
		t.Fatal("render malformed")
	}
}

func TestAblMetricEditDistanceEventuallyMoves(t *testing.T) {
	a, err := runAs[AblMetric](context.Background(), Spec{Campaign: "metric", Params: MetricParams{Devs: []float64{0.20}}}, WithSystem(sys()))
	if err != nil {
		t.Fatal(err)
	}
	if a.EditDist[0] <= 0 {
		t.Fatal("±20% deviation should change the traversal sequence")
	}
}

func TestStimOptImprovesOrKeepsSensitivity(t *testing.T) {
	s := sys()
	opt, err := runAs[StimOpt](context.Background(), Spec{Campaign: "stimopt", Params: StimOptParams{Shift: 0.05, Grid: 4}}, WithSystem(s))
	if err != nil {
		t.Fatal(err)
	}
	if opt.BestNDF < opt.BaseNDF {
		t.Fatalf("optimizer regressed: %v -> %v", opt.BaseNDF, opt.BestNDF)
	}
	if opt.BaseNDF <= 0 {
		t.Fatal("base sensitivity zero")
	}
	if len(opt.BestPhases) != 3 {
		t.Fatalf("phases = %v", opt.BestPhases)
	}
	if !strings.Contains(opt.Render(), "optimization") {
		t.Fatal("render malformed")
	}
}

func TestNoiseDistributionsStatisticallyDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("long Monte-Carlo campaign, skipped under -short")
	}
	// KS test: under the paper's noise, the null and 2%-deviation NDF
	// distributions are significantly different.
	s := sys()
	src := rng.New(31)
	sample := func(shift float64, base uint64) []float64 {
		cut, err := s.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 16)
		sc := core.NewTrialScratch()
		for i := range out {
			v, err := s.AveragedNDFScratch(cut, 0.005, src.Split(base+uint64(i)), 3, sc)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	null := sample(0, 0)
	dev := sample(0.02, 1000)
	d := stat.KolmogorovSmirnov(null, dev)
	if !stat.KSSignificant(d, len(null), len(dev), 0.05) {
		t.Fatalf("null and 2%% distributions not distinct (D=%v)", d)
	}
	// Two independent null samples are not significantly different.
	null2 := sample(0, 2000)
	d0 := stat.KolmogorovSmirnov(null, null2)
	if stat.KSSignificant(d0, len(null), len(null2), 0.01) {
		t.Fatalf("two null samples flagged distinct (D=%v)", d0)
	}
	// The ROC of null vs 2%-deviation is nearly a perfect separator.
	curve, err := ndf.ROC(null, dev)
	if err != nil {
		t.Fatal(err)
	}
	if auc := ndf.AUC(curve); auc < 0.95 {
		t.Fatalf("AUC = %v, want near-perfect separation at 2%%", auc)
	}
}
