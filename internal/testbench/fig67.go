package testbench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ndf"
	"repro/internal/signature"
	"repro/internal/zone"
)

// Fig6 is the zone codification picture: the zone inventory of the
// Table I partition plus the zone sequences traversed by the golden and
// deviated Lissajous curves.
type Fig6 struct {
	ZoneTable   string
	NumZones    int
	GoldenSeq   []string
	DefectSeq   []string
	Violations  int // Gray-property violations in the partition
	MultiRegion int // codes split across disconnected regions
}

// runFig6 builds the zone map on a grid of gridN² and extracts both
// traversal sequences (campaign "fig6").
func runFig6(sys *core.System, shift float64, gridN int) (*Fig6, error) {
	zm, err := zone.Build(sys.Bank, 0, 1, gridN)
	if err != nil {
		return nil, err
	}
	g, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	cut, err := sys.Shifted(shift)
	if err != nil {
		return nil, err
	}
	d, err := sys.ExactSignature(cut)
	if err != nil {
		return nil, err
	}
	seq := func(s *signature.Signature) []string {
		var out []string
		for _, e := range s.Entries {
			out = append(out, sys.Bank.FormatCode(e.Code))
		}
		return out
	}
	return &Fig6{
		ZoneTable:   zm.Table(),
		NumZones:    zm.NumZones(),
		GoldenSeq:   seq(g),
		DefectSeq:   seq(d),
		Violations:  len(zm.GrayViolations()),
		MultiRegion: len(zm.MultiRegionCodes()),
	}, nil
}

// Render prints the codification summary.
func (f *Fig6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "zones discovered: %d (paper labels 16), Gray violations: %d, multi-region codes: %d\n\n",
		f.NumZones, f.Violations, f.MultiRegion)
	b.WriteString(f.ZoneTable)
	b.WriteString("\ngolden traversal:    " + strings.Join(f.GoldenSeq, " -> ") + "\n")
	b.WriteString("defective traversal: " + strings.Join(f.DefectSeq, " -> ") + "\n")
	return b.String()
}

// Fig7 is the chronogram figure: decimal-coded signatures of golden and
// deviated CUTs over one period plus their Hamming-distance trace and
// the resulting NDF (paper: 0.1021 for +10%).
type Fig7 struct {
	Shift     float64
	Times     []float64
	GoldenDec []int
	DefectDec []int
	Hamming   []int
	NDF       float64
}

// runFig7 samples both chronograms at n points (campaign "fig7").
func runFig7(sys *core.System, shift float64, n int) (*Fig7, error) {
	g, err := sys.GoldenSignature()
	if err != nil {
		return nil, err
	}
	cut, err := sys.Shifted(shift)
	if err != nil {
		return nil, err
	}
	d, err := sys.ExactSignature(cut)
	if err != nil {
		return nil, err
	}
	v, err := ndf.NDF(d, g)
	if err != nil {
		return nil, err
	}
	times, gDec := signature.Chronogram(g, sys.Bank, n)
	_, dDec := signature.Chronogram(d, sys.Bank, n)
	_, ham := ndf.HammingChronogram(d, g, n)
	return &Fig7{
		Shift: shift, Times: times,
		GoldenDec: gDec, DefectDec: dDec, Hamming: ham, NDF: v,
	}, nil
}

// CSV renders "t_us,golden,defect,hamming".
func (f *Fig7) CSV() string {
	var b strings.Builder
	b.WriteString("t_us,golden_code,defect_code,hamming\n")
	for i := range f.Times {
		fmt.Fprintf(&b, "%.3f,%d,%d,%d\n",
			f.Times[i]*1e6, f.GoldenDec[i], f.DefectDec[i], f.Hamming[i])
	}
	return b.String()
}

// Render summarizes the figure.
func (f *Fig7) Render() string {
	maxH := 0
	for _, h := range f.Hamming {
		if h > maxH {
			maxH = h
		}
	}
	return fmt.Sprintf(
		"chronogram over %d samples, %+.0f%% f0 shift\nNDF = %.4f (paper: 0.1021)\nmax Hamming distance = %d (paper shows 2)\n",
		len(f.Times), f.Shift*100, f.NDF, maxH)
}
