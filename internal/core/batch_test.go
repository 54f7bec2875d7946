package core

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/signature"
)

func equalSigs(t *testing.T, name string, a, b *signature.Signature) {
	t.Helper()
	if a.Period != b.Period {
		t.Fatalf("%s: period %v vs %v", name, a.Period, b.Period)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("%s: %d entries vs %d", name, len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("%s: entry %d %v vs %v", name, i, a.Entries[i], b.Entries[i])
		}
	}
}

// referenceTwin returns a fresh default system whose bank wraps every
// Table I monitor in an anonymous struct. The wrapped monitors are not
// *monitor.Analytic, so the bank builds no zone LUT and the unchanged
// pipeline classifies every scan point, tick and bisection probe exactly
// with Bank.Classify — the reference the LUT paths must match bit for
// bit.
func referenceTwin(t testing.TB) *System {
	t.Helper()
	s := Default()
	ms := s.Bank.Monitors()
	wrapped := make([]monitor.Monitor, len(ms))
	for i, m := range ms {
		wrapped[i] = struct{ monitor.Monitor }{m}
	}
	s.Bank = monitor.NewBank(wrapped...)
	if s.Bank.HasLUT() {
		t.Fatal("wrapped reference bank built a zone LUT")
	}
	return s
}

// TestBatchedExactSignatureBitIdentical: the LUT-classified scan grid
// plus bisection must reproduce the LUT-less reference extraction, for the
// golden CUT and for shifted ones, on both observations.
func TestBatchedExactSignatureBitIdentical(t *testing.T) {
	for _, obs := range []Observation{ObserveLP, ObserveBP} {
		batched, ref := Default(), referenceTwin(t)
		batched.Observe, ref.Observe = obs, obs
		for _, shift := range []float64{0, 0.10, -0.07} {
			cb, err := batched.Shifted(shift)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := ref.Shifted(shift)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := batched.ExactSignature(cb)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := ref.ExactSignature(cs)
			if err != nil {
				t.Fatal(err)
			}
			equalSigs(t, obs.String(), sb, ss)
		}
	}
}

// TestBatchedCaptureBitIdentical: noiseless and noisy clocked captures
// must match the LUT-less reference exactly — same RNG substream, same
// draws, same codes, same entries.
func TestBatchedCaptureBitIdentical(t *testing.T) {
	batched, ref := Default(), referenceTwin(t)
	cb, err := batched.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ref.Shifted(0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Noiseless.
	sb, err := batched.CapturedSignature(cb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ref.CapturedSignature(cs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalSigs(t, "noiseless", sb, ss)
	// Noisy, same substream on both paths.
	for seed := uint64(1); seed <= 4; seed++ {
		sb, err := batched.CapturedSignature(cb, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := ref.CapturedSignature(cs, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "noisy", sb, ss)
	}
	// Scratch-backed capture equals the one-shot capture.
	sc := NewTrialScratch()
	for seed := uint64(1); seed <= 3; seed++ {
		warm, err := batched.CapturedSignatureScratch(cb, 0.005, rng.New(seed), sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := batched.CapturedSignature(cb, 0.005, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "scratch", warm, fresh)
	}
}

// TestBatchedAveragedNDFBitIdentical: the averaged campaign measurement
// must agree with the LUT-less reference, on a fresh and on a warm (reused)
// scratch.
func TestBatchedAveragedNDFBitIdentical(t *testing.T) {
	batched, ref := Default(), referenceTwin(t)
	cb, err := batched.Shifted(0.02)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ref.Shifted(0.02)
	if err != nil {
		t.Fatal(err)
	}
	const periods = 4
	want, err := ref.AveragedNDFScratch(cs, 0.005, rng.New(9), periods, NewTrialScratch())
	if err != nil {
		t.Fatal(err)
	}
	sc := NewTrialScratch()
	for _, pass := range []string{"fresh", "warm"} {
		got, err := batched.AveragedNDFScratch(cb, 0.005, rng.New(9), periods, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s scratch: batched %v, reference %v", pass, got, want)
		}
	}
}

// TestBatchedSweepF0BitIdentical: the Fig. 8 sweep must equal the
// LUT-less reference at any worker count.
func TestBatchedSweepF0BitIdentical(t *testing.T) {
	batched, ref := Default(), referenceTwin(t)
	shifts := []float64{-0.15, -0.05, 0, 0.03, 0.12}
	want, err := ref.SweepF0(context.Background(), shifts, campaign.Engine{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := batched.SweepF0(context.Background(), shifts, campaign.Engine{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d, shift %g: batched %v, reference %v",
					workers, shifts[i], got[i], want[i])
			}
		}
	}
}

// TestTrialScratchIsolation: a scratch reused across different CUTs must
// never leak one trial's state into the next.
func TestTrialScratchIsolation(t *testing.T) {
	sys := Default()
	sc := NewTrialScratch()
	shifts := []float64{0.10, -0.08, 0.01, 0.10}
	for _, shift := range shifts {
		cut, err := sys.Shifted(shift)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := sys.CapturedSignatureScratch(cut, 0, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.CapturedSignature(cut, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalSigs(t, "scratch isolation", warm, fresh)
	}
}
