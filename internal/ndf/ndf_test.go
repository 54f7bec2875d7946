package ndf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/biquad"
	"repro/internal/monitor"
	"repro/internal/signature"
	"repro/internal/wave"
)

func sig(period float64, entries ...signature.Entry) *signature.Signature {
	return &signature.Signature{Period: period, Entries: entries}
}

func TestNDFIdenticalIsZero(t *testing.T) {
	a := sig(1, signature.Entry{Code: 0, Dur: 0.5}, signature.Entry{Code: 1, Dur: 0.5})
	v, err := NDF(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("NDF(a,a) = %v, want 0", v)
	}
}

func TestNDFHandComputed(t *testing.T) {
	// Golden: code 0 on [0, 0.5), code 1 on [0.5, 1).
	// Observed: code 0 on [0, 0.6), code 1 on [0.6, 1).
	// They differ on [0.5, 0.6) with Hamming distance 1 -> NDF = 0.1.
	g := sig(1, signature.Entry{Code: 0, Dur: 0.5}, signature.Entry{Code: 1, Dur: 0.5})
	o := sig(1, signature.Entry{Code: 0, Dur: 0.6}, signature.Entry{Code: 1, Dur: 0.4})
	v, err := NDF(o, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.1) > 1e-12 {
		t.Fatalf("NDF = %v, want 0.1", v)
	}
}

func TestNDFMultiBitDistance(t *testing.T) {
	// Codes 0b00 vs 0b11 differ in 2 bits over the whole period -> NDF 2.
	g := sig(1, signature.Entry{Code: 0b00, Dur: 1})
	o := sig(1, signature.Entry{Code: 0b11, Dur: 1})
	v, err := NDF(o, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-12 {
		t.Fatalf("NDF = %v, want 2", v)
	}
}

func TestNDFSymmetric(t *testing.T) {
	g := sig(1, signature.Entry{Code: 0, Dur: 0.3}, signature.Entry{Code: 2, Dur: 0.7})
	o := sig(1, signature.Entry{Code: 1, Dur: 0.55}, signature.Entry{Code: 2, Dur: 0.45})
	a, err := NDF(o, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NDF(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("NDF not symmetric: %v vs %v", a, b)
	}
}

func TestNDFPeriodMismatch(t *testing.T) {
	g := sig(1, signature.Entry{Code: 0, Dur: 1})
	o := sig(2, signature.Entry{Code: 0, Dur: 2})
	if _, err := NDF(o, g); err == nil {
		t.Fatal("period mismatch accepted")
	}
}

func TestNDFRejectsInvalid(t *testing.T) {
	g := sig(1, signature.Entry{Code: 0, Dur: 1})
	bad := sig(1) // empty
	if _, err := NDF(bad, g); err == nil {
		t.Fatal("invalid observed accepted")
	}
	if _, err := NDF(g, bad); err == nil {
		t.Fatal("invalid golden accepted")
	}
}

func TestSampledConvergesToExact(t *testing.T) {
	g := sig(1,
		signature.Entry{Code: 0, Dur: 0.25},
		signature.Entry{Code: 1, Dur: 0.25},
		signature.Entry{Code: 3, Dur: 0.5})
	o := sig(1,
		signature.Entry{Code: 0, Dur: 0.3},
		signature.Entry{Code: 1, Dur: 0.3},
		signature.Entry{Code: 7, Dur: 0.4})
	exact, err := NDF(o, g)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Sampled(o, g, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-approx) > 1e-3 {
		t.Fatalf("sampled %v vs exact %v", approx, exact)
	}
	if _, err := Sampled(o, g, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestHammingChronogram(t *testing.T) {
	g := sig(1, signature.Entry{Code: 0, Dur: 0.5}, signature.Entry{Code: 1, Dur: 0.5})
	o := sig(1, signature.Entry{Code: 0, Dur: 0.75}, signature.Entry{Code: 1, Dur: 0.25})
	times, dist := HammingChronogram(o, g, 100)
	if len(times) != 100 || len(dist) != 100 {
		t.Fatal("chronogram size wrong")
	}
	// Distance must be 1 exactly on [0.5, 0.75).
	for i, tt := range times {
		want := 0
		if tt >= 0.5 && tt < 0.75 {
			want = 1
		}
		if dist[i] != want {
			t.Fatalf("d_H at t=%v = %d, want %d", tt, dist[i], want)
		}
	}
}

func TestDecisionAndCalibration(t *testing.T) {
	devs := []float64{-0.2, -0.1, -0.05, 0, 0.05, 0.1, 0.2}
	ndfs := []float64{0.20, 0.10, 0.05, 0.0, 0.048, 0.11, 0.19}
	d, err := CalibrateThreshold(devs, ndfs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Threshold-0.05) > 1e-12 {
		t.Fatalf("threshold = %v, want 0.05 (band edge)", d.Threshold)
	}
	if !d.Pass(0.04) || d.Pass(0.06) {
		t.Fatal("Pass decision wrong")
	}
	// Interpolated tolerance between sweep points.
	d2, err := CalibrateThreshold(devs, ndfs, 0.075)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Threshold <= 0.05 || d2.Threshold >= 0.11 {
		t.Fatalf("interpolated threshold = %v, want between edge values", d2.Threshold)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := CalibrateThreshold([]float64{0}, []float64{0}, 0.1); err == nil {
		t.Fatal("single-point sweep accepted")
	}
	if _, err := CalibrateThreshold([]float64{0, 1}, []float64{0}, 0.1); err == nil {
		t.Fatal("mismatched sweep accepted")
	}
	if _, err := CalibrateThreshold([]float64{0, 1}, []float64{0, 1}, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
}

func TestEvaluateRates(t *testing.T) {
	d := Decision{Threshold: 0.05}
	good := []float64{0.01, 0.02, 0.06, 0.03} // one above threshold
	bad := []float64{0.10, 0.04, 0.2, 0.3}    // one below threshold
	st := Evaluate(d, good, bad)
	if math.Abs(st.FalsePositiveRate-0.25) > 1e-12 {
		t.Fatalf("FPR = %v, want 0.25", st.FalsePositiveRate)
	}
	if math.Abs(st.DetectionRate-0.75) > 1e-12 {
		t.Fatalf("detection = %v, want 0.75", st.DetectionRate)
	}
}

func TestThresholdFromNull(t *testing.T) {
	null := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	d, err := ThresholdFromNull(null, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Threshold != 0.05 {
		t.Fatalf("max-quantile threshold = %v, want 0.05", d.Threshold)
	}
	dm, _ := ThresholdFromNull(null, 0.5)
	if dm.Threshold != 0.03 {
		t.Fatalf("median threshold = %v, want 0.03", dm.Threshold)
	}
	if _, err := ThresholdFromNull(nil, 0.5); err == nil {
		t.Fatal("empty null accepted")
	}
	if _, err := ThresholdFromNull(null, 1.5); err == nil {
		t.Fatal("bad quantile accepted")
	}
}

// Regression: a NaN (or Inf) null value used to sort unpredictably and
// silently poison the calibrated threshold; it must now be rejected
// with a descriptive error.
func TestThresholdFromNullRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		null := []float64{0.01, bad, 0.03}
		if _, err := ThresholdFromNull(null, 1.0); err == nil {
			t.Fatalf("null sample containing %v accepted", bad)
		} else if !strings.Contains(err.Error(), "finite") {
			t.Fatalf("error %q does not name the non-finite value", err)
		}
	}
}

// Property: NDF is bounded by the code width (max Hamming distance) and
// non-negative, for random two-segment signatures.
func TestNDFBoundsProperty(t *testing.T) {
	prop := func(c1, c2 uint8, splitRaw uint8) bool {
		split := 0.1 + 0.8*float64(splitRaw)/255
		g := sig(1,
			signature.Entry{Code: monitor.Code(c1 % 64), Dur: 0.5},
			signature.Entry{Code: monitor.Code((c1 + 1) % 64), Dur: 0.5})
		o := sig(1,
			signature.Entry{Code: monitor.Code(c2 % 64), Dur: split},
			signature.Entry{Code: monitor.Code((c2 + 7) % 64), Dur: 1 - split})
		v, err := NDF(o, g)
		if err != nil {
			return false
		}
		return v >= 0 && v <= 6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: the paper's +10% f0 experiment yields an NDF of the same
// order as the published 0.1021, rising with deviation.
func TestPaperNDFOrderOfMagnitude(t *testing.T) {
	bank := monitor.NewAnalyticTableI()
	in, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(shift float64) *signature.Signature {
		f, err := biquad.New(biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}.WithF0Shift(shift))
		if err != nil {
			t.Fatal(err)
		}
		out := f.SteadyState(in)
		cls := func(tt float64) monitor.Code {
			return bank.Classify(in.Eval(tt), out.Eval(tt))
		}
		const nScan = 8192
		codes := make([]monitor.Code, nScan+1)
		for i := range codes {
			codes[i] = cls(in.Period() * float64(i) / nScan)
		}
		s, err := signature.ExactFromCodes(codes, cls, in.Period(), 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	golden := mk(0)
	v10, err := NDF(mk(0.10), golden)
	if err != nil {
		t.Fatal(err)
	}
	if v10 < 0.02 || v10 > 0.3 {
		t.Fatalf("NDF(+10%%) = %v, want same order as paper's 0.1021", v10)
	}
	v5, err := NDF(mk(0.05), golden)
	if err != nil {
		t.Fatal(err)
	}
	v20, err := NDF(mk(0.20), golden)
	if err != nil {
		t.Fatal(err)
	}
	if !(v5 < v10 && v10 < v20) {
		t.Fatalf("NDF not increasing with deviation: %v, %v, %v", v5, v10, v20)
	}
}
