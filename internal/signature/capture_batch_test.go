package signature

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/monitor"
	"repro/internal/rng"
)

// tickCodes samples a classifier on the capture tick grid, in tick
// order.
func tickCodes(cls Classifier, T float64, cfg CaptureConfig) ([]monitor.Code, error) {
	n, err := cfg.Ticks(T)
	if err != nil {
		return nil, err
	}
	tick := 1 / cfg.ClockHz
	codes := make([]monitor.Code, n)
	codes[0] = cls(0)
	for k := 1; k < n; k++ {
		codes[k] = cls(float64(k) * tick)
	}
	return codes, nil
}

// fillCodes is tickCodes for a configuration the test knows is valid.
func fillCodes(t *testing.T, cls Classifier, T float64, cfg CaptureConfig) []monitor.Code {
	t.Helper()
	codes, err := tickCodes(cls, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return codes
}

// capture is the canonical clocked capture of a classifier.
func capture(t *testing.T, cls Classifier, T float64, cfg CaptureConfig) *Signature {
	t.Helper()
	sig, err := CaptureCanonicalCodes(fillCodes(t, cls, T, cfg), T, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// rawCapture is the clocked capture before the canonical merge: counter
// wraps show as split entries of the maximum measurable duration.
func rawCapture(t *testing.T, cls Classifier, T float64, cfg CaptureConfig) *Signature {
	t.Helper()
	return &Signature{Period: T, Entries: walkCodes(fillCodes(t, cls, T, cfg), T, cfg, nil)}
}

func sameSignature(a, b *Signature) bool {
	if a.Period != b.Period || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// TestCaptureCanonicalCodesMatchesScalar: a staircase of k equal zones
// per period must capture as exactly k dwells of T/k within clock
// quantization, across deglitching depths and counter-wrap splits, and
// a capture whose codes alias the buffer's own tick scratch must equal
// the one-shot capture of a separate code slice.
func TestCaptureCanonicalCodesMatchesScalar(t *testing.T) {
	T := 200e-6
	cfgs := []CaptureConfig{
		{ClockHz: 10e6, CounterBits: 16},
		{ClockHz: 10e6, CounterBits: 8}, // forces wraps
		{ClockHz: 10e6, CounterBits: 16, MinStableTicks: 4},
		{ClockHz: 2.5e6, CounterBits: 12},
	}
	buf := &CaptureBuffer{}
	for _, cfg := range cfgs {
		tick := 1 / cfg.ClockHz
		for seed := uint8(0); seed < 8; seed++ {
			k := 2 + int(seed%5)
			cls := func(t float64) monitor.Code {
				frac := math.Mod(t, T) / T
				return monitor.Code(int(frac*float64(k)) % k)
			}
			codes := fillCodes(t, cls, T, cfg)
			want, err := CaptureCanonicalCodes(codes, T, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Entries) != k {
				t.Fatalf("cfg %+v, %d zones: %d entries %v", cfg, k, len(want.Entries), want)
			}
			for i, e := range want.Entries {
				if e.Code != monitor.Code(i) || math.Abs(e.Dur-T/float64(k)) > 2*tick {
					t.Fatalf("cfg %+v, %d zones: entry %d is %v, want code %d for %v", cfg, k, i, e, i, T/float64(k))
				}
			}
			aliased := buf.Codes(len(codes))
			copy(aliased, codes)
			got, err := CaptureCanonicalCodes(aliased, T, cfg, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSignature(want, got) {
				t.Fatalf("cfg %+v seed %d: aliased buffer capture %v, one-shot %v", cfg, seed, got, want)
			}
		}
	}
}

// TestCaptureCanonicalBufferReuse: repeated warm-buffer captures must be
// bit-identical to fresh one-shot captures — stale scratch contents must
// never leak into a result.
func TestCaptureCanonicalBufferReuse(t *testing.T) {
	T := 200e-6
	cfg := CaptureConfig{ClockHz: 10e6, CounterBits: 16}
	buf := &CaptureBuffer{}
	for seed := uint8(0); seed < 6; seed++ {
		k := 2 + int(seed%4)
		cls := func(t float64) monitor.Code {
			frac := math.Mod(t, T) / T
			return monitor.Code(int(frac*float64(k)) % k)
		}
		codes := fillCodes(t, cls, T, cfg)
		fresh, err := CaptureCanonicalCodes(codes, T, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := CaptureCanonicalCodes(codes, T, cfg, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSignature(fresh, warm) {
			t.Fatalf("seed %d: warm buffer diverged: %v vs %v", seed, warm, fresh)
		}
	}
}

// TestCaptureCanonicalCodesRejectsWrongLength: the codes slice must
// cover exactly one tick grid.
func TestCaptureCanonicalCodesRejectsWrongLength(t *testing.T) {
	cfg := DefaultCapture()
	if _, err := CaptureCanonicalCodes(make([]monitor.Code, 7), 200e-6, cfg, nil); err == nil {
		t.Fatal("wrong-length code slice accepted")
	}
	if _, err := CaptureCanonicalCodes(nil, 0, cfg, nil); err == nil {
		t.Fatal("zero period accepted")
	}
}

// Allocation pin: a warm capture buffer makes the canonical capture loop
// allocation-free — one buffer per campaign worker absorbs every period.
func TestCaptureCanonicalAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	T := 200e-6
	cfg := DefaultCapture()
	buf := &CaptureBuffer{}
	codes := buf.Codes(2000)
	copy(codes, fillCodes(t, stepClassifier(T), T, cfg))
	if _, err := CaptureCanonicalCodes(codes, T, cfg, buf); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := CaptureCanonicalCodes(codes, T, cfg, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("warm CaptureCanonicalCodes allocates %.1f per capture, want 0", a)
	}
}

// TestExactFromCodesMatchesExact: grid-then-bisect extraction must find
// the classifier's exact transitions (0.25, 0.5 and 0.9 of the period)
// within the bisection tolerance at any scan grid that separates them.
func TestExactFromCodesMatchesExact(t *testing.T) {
	T := 1e-3
	cls := stepClassifier(T)
	const tol = 1e-12
	wantCodes := []monitor.Code{0, 1, 3, 2}
	wantEdges := []float64{0.25 * T, 0.5 * T, 0.9 * T}
	for _, nScan := range []int{20, 999, 4096} {
		sig, err := exact(cls, T, nScan, tol)
		if err != nil {
			t.Fatal(err)
		}
		if len(sig.Entries) != len(wantCodes) {
			t.Fatalf("nScan %d: %d entries, want %d: %v", nScan, len(sig.Entries), len(wantCodes), sig)
		}
		edge := 0.0
		for i, e := range sig.Entries {
			if e.Code != wantCodes[i] {
				t.Fatalf("nScan %d: entry %d code %d, want %d", nScan, i, e.Code, wantCodes[i])
			}
			edge += e.Dur
			if i < len(wantEdges) && math.Abs(edge-wantEdges[i]) > 2*tol {
				t.Fatalf("nScan %d: edge %d at %v, want %v", nScan, i, edge, wantEdges[i])
			}
		}
	}
	codes := make([]monitor.Code, 3)
	if _, err := ExactFromCodes(codes[:2], cls, T, 0); err == nil {
		t.Fatal("2-point code grid accepted (needs at least 2 scan intervals)")
	}
}

// TestCursorMatchesAt: property test — the cumulative cursor equals
// Signature.At for monotone, backwards and wrapping query sequences.
func TestCursorMatchesAt(t *testing.T) {
	prop := func(seed uint16) bool {
		src := rng.New(uint64(seed))
		n := 1 + int(src.Uint64()%12)
		sig := &Signature{Period: 1e-3}
		rem := sig.Period
		for i := 0; i < n; i++ {
			d := rem / float64(n-i)
			if i < n-1 {
				d *= 0.5 + src.Float64()
				if d > rem {
					d = rem
				}
			} else {
				d = rem
			}
			sig.Entries = append(sig.Entries, Entry{Code: monitor.Code(src.Uint64() % 8), Dur: d})
			rem -= d
		}
		cur := sig.Cursor()
		for q := 0; q < 200; q++ {
			var tq float64
			switch q % 3 {
			case 0: // forward ramp
				tq = sig.Period * float64(q) / 200
			case 1: // random, including out-of-period wraps
				tq = (src.Float64()*3 - 1) * sig.Period
			default: // exactly on cumulative boundaries
				idx := int(src.Uint64() % uint64(len(sig.Entries)))
				acc := 0.0
				for i := 0; i <= idx; i++ {
					acc += sig.Entries[i].Dur
				}
				tq = acc
			}
			if cur.At(tq) != sig.At(tq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestChronogramCursorEquivalence: the cursor-backed Chronogram must
// equal a naive At-based scan.
func TestChronogramCursorEquivalence(t *testing.T) {
	sig, bank := paperSignature(t, 0.10)
	times, dec := Chronogram(sig, bank, 512)
	for i := range times {
		if want := bank.Decimal(sig.At(times[i])); dec[i] != want {
			t.Fatalf("sample %d: cursor %d, At %d", i, dec[i], want)
		}
	}
}
