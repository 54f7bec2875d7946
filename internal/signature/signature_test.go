package signature

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/biquad"
	"repro/internal/monitor"
	"repro/internal/wave"
)

// stepClassifier yields code changes at fixed fractions of the period.
func stepClassifier(T float64) Classifier {
	return func(t float64) monitor.Code {
		frac := math.Mod(t, T) / T
		switch {
		case frac < 0.25:
			return 0
		case frac < 0.5:
			return 1
		case frac < 0.9:
			return 3
		default:
			return 2
		}
	}
}

// exact classifies the nScan+1 points T·i/nScan with cls and extracts
// the exact signature from that grid, bisecting with the same cls.
func exact(cls Classifier, T float64, nScan int, tol float64) (*Signature, error) {
	codes := make([]monitor.Code, nScan+1)
	for i := range codes {
		codes[i] = cls(T * float64(i) / float64(nScan))
	}
	return ExactFromCodes(codes, cls, T, tol)
}

func TestExactKnownTransitions(t *testing.T) {
	T := 1e-3
	sig, err := exact(stepClassifier(T), T, 4096, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if err := sig.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sig.Entries) != 4 {
		t.Fatalf("entries = %d, want 4: %v", len(sig.Entries), sig)
	}
	wantCodes := []monitor.Code{0, 1, 3, 2}
	wantDurs := []float64{0.25e-3, 0.25e-3, 0.4e-3, 0.1e-3}
	for i, e := range sig.Entries {
		if e.Code != wantCodes[i] {
			t.Fatalf("entry %d code = %d, want %d", i, e.Code, wantCodes[i])
		}
		if math.Abs(e.Dur-wantDurs[i]) > 1e-9 {
			t.Fatalf("entry %d dur = %v, want %v", i, e.Dur, wantDurs[i])
		}
	}
}

func TestExactConstantClassifier(t *testing.T) {
	sig, err := exact(func(float64) monitor.Code { return 7 }, 1e-3, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Entries) != 1 || sig.Entries[0].Code != 7 {
		t.Fatalf("constant classifier signature = %v", sig)
	}
	if math.Abs(sig.Entries[0].Dur-1e-3) > 1e-15 {
		t.Fatal("constant dwell must equal the period")
	}
}

func TestExactValidation(t *testing.T) {
	cls := stepClassifier(1)
	if _, err := ExactFromCodes(make([]monitor.Code, 101), cls, 0, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := ExactFromCodes(make([]monitor.Code, 2), cls, 1, 0); err == nil {
		t.Fatal("single scan interval accepted")
	}
}

func TestAtLookup(t *testing.T) {
	T := 1e-3
	sig, _ := exact(stepClassifier(T), T, 4096, 1e-12)
	cases := []struct {
		t    float64
		want monitor.Code
	}{
		{0.1e-3, 0}, {0.3e-3, 1}, {0.7e-3, 3}, {0.95e-3, 2},
		{1.1e-3, 0},   // wraps
		{-0.05e-3, 2}, // negative wraps to 0.95e-3
	}
	for _, c := range cases {
		if got := sig.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &Signature{Period: 1, Entries: []Entry{{0, 0.5}, {1, 0.5}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Signature{Period: 1, Entries: []Entry{{0, 0.5}, {0, 0.5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("adjacent duplicate accepted")
	}
	bad2 := &Signature{Period: 1, Entries: []Entry{{0, 0.4}, {1, 0.4}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("duration shortfall accepted")
	}
	bad3 := &Signature{Period: 1, Entries: []Entry{{0, -0.5}, {1, 1.5}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	empty := &Signature{Period: 1}
	if err := empty.Validate(); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestCaptureMatchesExact(t *testing.T) {
	T := 200e-6
	cls := stepClassifier(T)
	ref, err := exact(cls, T, 8192, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCapture()
	cap := capture(t, cls, T, cfg)
	if err := cap.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cap.Entries) != len(ref.Entries) {
		t.Fatalf("captured %d entries vs exact %d", len(cap.Entries), len(ref.Entries))
	}
	tick := 1 / cfg.ClockHz
	for i := range cap.Entries {
		if cap.Entries[i].Code != ref.Entries[i].Code {
			t.Fatalf("entry %d code mismatch", i)
		}
		if math.Abs(cap.Entries[i].Dur-ref.Entries[i].Dur) > 2*tick {
			t.Fatalf("entry %d dur %v vs exact %v beyond clock quantization",
				i, cap.Entries[i].Dur, ref.Entries[i].Dur)
		}
	}
}

func TestCaptureCounterWrap(t *testing.T) {
	// 8-bit counter, 10 MHz clock: max dwell 25.5 µs. A 100 µs dwell in
	// one zone must be split and then merged by Canonical.
	T := 200e-6
	cls := func(t float64) monitor.Code {
		if math.Mod(t, T) < 100e-6 {
			return 0
		}
		return 1
	}
	cfg := CaptureConfig{ClockHz: 10e6, CounterBits: 8}
	cap := rawCapture(t, cls, T, cfg)
	// Raw capture has wrap splits -> more than 2 entries.
	if len(cap.Entries) <= 2 {
		t.Fatalf("expected wrap splits, got %d entries", len(cap.Entries))
	}
	merged := cap.Canonical()
	if len(merged.Entries) != 2 {
		t.Fatalf("canonical entries = %d, want 2", len(merged.Entries))
	}
	for _, e := range merged.Entries {
		if math.Abs(e.Dur-100e-6) > 1e-6 {
			t.Fatalf("merged dwell = %v, want ~100 µs", e.Dur)
		}
	}
}

func TestCaptureValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		T    float64
		cfg  CaptureConfig
	}{
		{"zero clock", 1, CaptureConfig{ClockHz: 0, CounterBits: 8}},
		{"zero-bit counter", 1, CaptureConfig{ClockHz: 1e6, CounterBits: 0}},
		{"zero period", 0, DefaultCapture()},
		{"sub-tick period", 1e-9, CaptureConfig{ClockHz: 1e6, CounterBits: 8}},
	} {
		if _, err := c.cfg.Ticks(c.T); err == nil {
			t.Fatalf("%s accepted by Ticks", c.name)
		}
		if _, err := CaptureCanonicalCodes(make([]monitor.Code, 2), c.T, c.cfg, nil); err == nil {
			t.Fatalf("%s accepted by CaptureCanonicalCodes", c.name)
		}
	}
}

func TestCaptureDurationsSumToPeriod(t *testing.T) {
	T := 200e-6
	cap := rawCapture(t, stepClassifier(T), T, DefaultCapture())
	sum := 0.0
	for _, e := range cap.Entries {
		sum += e.Dur
	}
	if math.Abs(sum-T) > 1e-12 {
		t.Fatalf("durations sum to %v, want %v", sum, T)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	T := 1e-3
	sig, _ := exact(stepClassifier(T), T, 4096, 1e-12)
	data, err := sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Signature
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Period != sig.Period || len(back.Entries) != len(sig.Entries) {
		t.Fatal("round trip lost structure")
	}
	for i := range back.Entries {
		if back.Entries[i] != sig.Entries[i] {
			t.Fatalf("entry %d changed in round trip", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var s Signature
	if err := s.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated data accepted")
	}
	if err := s.UnmarshalBinary([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDistinctCodes(t *testing.T) {
	sig := &Signature{Period: 1, Entries: []Entry{{0, 0.2}, {1, 0.2}, {0, 0.2}, {3, 0.4}}}
	d := sig.DistinctCodes()
	want := []monitor.Code{0, 1, 3}
	if len(d) != len(want) {
		t.Fatalf("distinct = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("distinct[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	if sig.NumZones() != 4 {
		t.Fatalf("NumZones = %d, want 4", sig.NumZones())
	}
}

func TestStringRendering(t *testing.T) {
	sig := &Signature{Period: 1e-3, Entries: []Entry{{4, 0.5e-3}, {5, 0.5e-3}}}
	if s := sig.String(); s == "" || s[0] != '{' {
		t.Fatalf("String = %q", s)
	}
}

// Paper pipeline: the golden biquad signature through the Table I bank.
func paperSignature(t *testing.T, f0Shift float64) (*Signature, *monitor.Bank) {
	t.Helper()
	in, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	f, err := biquad.New(biquad.Params{F0: 10e3, Q: 0.9, Gain: 1}.WithF0Shift(f0Shift))
	if err != nil {
		t.Fatal(err)
	}
	out := f.SteadyState(in)
	bank := monitor.NewAnalyticTableI()
	cls := func(tt float64) monitor.Code {
		return bank.Classify(in.Eval(tt), out.Eval(tt))
	}
	sig, err := exact(cls, in.Period(), 8192, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	return sig, bank
}

func TestPaperGoldenSignatureShape(t *testing.T) {
	sig, _ := paperSignature(t, 0)
	if err := sig.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 6/7: the golden curve traverses on the order of 10-20 zone
	// intervals per period.
	if n := sig.NumZones(); n < 6 || n > 60 {
		t.Fatalf("golden signature has %d intervals, implausible vs paper", n)
	}
	if math.Abs(sig.Period-200e-6) > 1e-12 {
		t.Fatalf("period = %v, want 200 µs", sig.Period)
	}
}

func TestPaperDefectiveSignatureDiffers(t *testing.T) {
	golden, _ := paperSignature(t, 0)
	defective, _ := paperSignature(t, 0.10)
	// The +10% signature must differ somewhere.
	same := golden.NumZones() == defective.NumZones()
	if same {
		for i := range golden.Entries {
			if golden.Entries[i].Code != defective.Entries[i].Code ||
				math.Abs(golden.Entries[i].Dur-defective.Entries[i].Dur) > 1e-7 {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("defective signature identical to golden")
	}
}

func TestChronogramShape(t *testing.T) {
	sig, bank := paperSignature(t, 0)
	times, dec := Chronogram(sig, bank, 400)
	if len(times) != 400 || len(dec) != 400 {
		t.Fatal("chronogram size wrong")
	}
	changes := 0
	for i := 1; i < len(dec); i++ {
		if dec[i] != dec[i-1] {
			changes++
		}
		if dec[i] < 0 || dec[i] > 63 {
			t.Fatalf("decimal code %d out of 6-bit range", dec[i])
		}
	}
	if changes < 5 {
		t.Fatalf("chronogram nearly constant (%d changes)", changes)
	}
}

// Property: the canonical capture always yields durations summing to the
// period and never two adjacent equal codes, for random step patterns.
func TestCaptureInvariantProperty(t *testing.T) {
	prop := func(seed uint8) bool {
		T := 100e-6
		k := 2 + int(seed%5)
		cls := func(t float64) monitor.Code {
			frac := math.Mod(t, T) / T
			return monitor.Code(int(frac*float64(k)) % k)
		}
		cfg := CaptureConfig{ClockHz: 5e6, CounterBits: 12}
		codes, err := tickCodes(cls, T, cfg)
		if err != nil {
			return false
		}
		can, err := CaptureCanonicalCodes(codes, T, cfg, nil)
		if err != nil {
			return false
		}
		sum := 0.0
		for i, e := range can.Entries {
			sum += e.Dur
			if i > 0 && can.Entries[i-1].Code == e.Code {
				return false
			}
		}
		return math.Abs(sum-T) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	T := 1e-3
	sig, _ := exact(stepClassifier(T), T, 4096, 1e-12)
	data, err := json.Marshal(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "period_s") {
		t.Fatalf("JSON missing fields: %s", data)
	}
	var back Signature
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Period != sig.Period || len(back.Entries) != len(sig.Entries) {
		t.Fatal("JSON round trip lost structure")
	}
	for i := range back.Entries {
		if back.Entries[i] != sig.Entries[i] {
			t.Fatalf("entry %d changed", i)
		}
	}
	if err := (&Signature{}).UnmarshalJSON([]byte("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
