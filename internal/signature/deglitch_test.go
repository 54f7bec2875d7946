package signature

import (
	"math"
	"testing"

	"repro/internal/monitor"
	"repro/internal/rng"
)

// chatterClassifier models a boundary with noise chatter: a clean
// transition at T/2 plus random single-tick flips near the boundary.
func chatterClassifier(T float64, src *rng.Stream) Classifier {
	return func(t float64) monitor.Code {
		frac := math.Mod(t, T) / T
		base := monitor.Code(0)
		if frac >= 0.5 {
			base = 1
		}
		// Within ±2% of the boundary, 30% of samples flip.
		if math.Abs(frac-0.5) < 0.02 && src.Float64() < 0.3 {
			return base ^ 1
		}
		return base
	}
}

func TestDeglitchSuppressesChatter(t *testing.T) {
	T := 200e-6
	raw := capture(t, chatterClassifier(T, rng.New(5)), T,
		CaptureConfig{ClockHz: 10e6, CounterBits: 16})
	deg := capture(t, chatterClassifier(T, rng.New(5)), T,
		CaptureConfig{ClockHz: 10e6, CounterBits: 16, MinStableTicks: 4})
	rawN := len(raw.Entries)
	degN := len(deg.Entries)
	if rawN <= 3 {
		t.Fatalf("chatter model produced no spurious transitions (%d entries)", rawN)
	}
	if degN >= rawN {
		t.Fatalf("deglitch did not reduce transitions: %d -> %d", rawN, degN)
	}
	if degN > 4 {
		t.Fatalf("deglitched capture still has %d entries, want ~2", degN)
	}
}

func TestDeglitchPreservesCleanSignature(t *testing.T) {
	T := 200e-6
	cls := stepClassifier(T)
	plain := rawCapture(t, cls, T, CaptureConfig{ClockHz: 10e6, CounterBits: 16})
	deg := rawCapture(t, cls, T, CaptureConfig{ClockHz: 10e6, CounterBits: 16, MinStableTicks: 3})
	if len(plain.Entries) != len(deg.Entries) {
		t.Fatalf("deglitch changed clean structure: %d vs %d entries",
			len(plain.Entries), len(deg.Entries))
	}
	tick := 1e-7
	for i := range plain.Entries {
		if plain.Entries[i].Code != deg.Entries[i].Code {
			t.Fatalf("entry %d code changed", i)
		}
		// Retroactive attribution keeps dwell errors within the deglitch
		// depth.
		if math.Abs(plain.Entries[i].Dur-deg.Entries[i].Dur) > 4*tick {
			t.Fatalf("entry %d dwell moved: %v vs %v",
				i, plain.Entries[i].Dur, deg.Entries[i].Dur)
		}
	}
}

func TestDeglitchValidation(t *testing.T) {
	cfg := CaptureConfig{ClockHz: 1e6, CounterBits: 8, MinStableTicks: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative deglitch accepted")
	}
}

func TestDeglitchDurationsStillSumToPeriod(t *testing.T) {
	T := 200e-6
	sig := rawCapture(t, chatterClassifier(T, rng.New(9)), T,
		CaptureConfig{ClockHz: 10e6, CounterBits: 16, MinStableTicks: 5})
	sum := 0.0
	for _, e := range sig.Entries {
		sum += e.Dur
	}
	if math.Abs(sum-T) > 1e-12 {
		t.Fatalf("durations sum to %v, want %v", sum, T)
	}
	if err := sig.Canonical().Validate(); err != nil {
		t.Fatal(err)
	}
}
