package testbench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ndf"
)

// AblMetric compares the paper's NDF against the earlier sequence-based
// signature comparison (ref [12]: zone traversal order, here scored with
// a normalized edit distance). The NDF weights code discrepancies by
// dwell time, so it responds continuously to deviations that only warp
// the dwell profile; the sequence metric only moves when the traversal
// order itself changes.
type AblMetric struct {
	Devs     []float64
	NDFs     []float64
	EditDist []float64 // normalized edit distance per deviation
}

// runAblMetric sweeps both metrics over the f0 deviation grid (campaign
// "metric").
func runAblMetric(ctx context.Context, sys *core.System, devs []float64) (*AblMetric, error) {
	g, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	out := &AblMetric{Devs: devs}
	for _, d := range devs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cut, err := sys.Shifted(d)
		if err != nil {
			return nil, err
		}
		obs, err := sys.ExactSignature(cut)
		if err != nil {
			return nil, err
		}
		v, err := ndf.NDF(obs, g)
		if err != nil {
			return nil, err
		}
		out.NDFs = append(out.NDFs, v)
		out.EditDist = append(out.EditDist, ndf.NormalizedEditDistance(obs, g))
	}
	return out, nil
}

// SmallestMoved returns, for each metric, the smallest |deviation| in
// the sweep at which it becomes nonzero (resolution of the metric);
// +Inf-like sentinel 1.0 when it never moves.
func (a *AblMetric) SmallestMoved() (ndfRes, editRes float64) {
	ndfRes, editRes = 1.0, 1.0
	for i, d := range a.Devs {
		ad := d
		if ad < 0 {
			ad = -ad
		}
		if ad == 0 {
			continue
		}
		if a.NDFs[i] > 0 && ad < ndfRes {
			ndfRes = ad
		}
		if a.EditDist[i] > 0 && ad < editRes {
			editRes = ad
		}
	}
	return ndfRes, editRes
}

// Render prints the two sensitivity curves.
func (a *AblMetric) Render() string {
	var b strings.Builder
	b.WriteString("metric ablation: time-weighted NDF (Eq. 2) vs sequence edit distance (ref [12] style)\n")
	b.WriteString("dev%    NDF      edit(norm)\n")
	for i := range a.Devs {
		fmt.Fprintf(&b, "%+5.1f  %.4f   %.4f\n", a.Devs[i]*100, a.NDFs[i], a.EditDist[i])
	}
	nr, er := a.SmallestMoved()
	fmt.Fprintf(&b, "smallest deviation seen: NDF %.1f%%, edit distance %.1f%%\n", nr*100, er*100)
	return b.String()
}
