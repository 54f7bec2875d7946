package wave_test

import (
	"math"
	"testing"

	"repro/internal/biquad"
	"repro/internal/rng"
	"repro/internal/wave"
)

// paperStimulus is the {5, 10, 15} kHz multitone of the paper's system.
func paperStimulus(t *testing.T) *wave.Multitone {
	t.Helper()
	stim, err := wave.NewMultitone(0.5, 5e3, []int{1, 2, 3},
		[]float64{0.22, 0.13, 0.08}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return stim
}

// gridError returns max_i |approx_i − Eval(T·i/n)| over an n-sample
// grid, with the bound EvalGrid returned; it fails the test when the
// grid is not covered.
func gridError(t *testing.T, m *wave.Multitone, T float64, n int, out []float64) (maxErr, eps float64) {
	t.Helper()
	eps, ok := m.EvalGrid(T, n, out)
	if !ok {
		t.Fatalf("EvalGrid rejected an integer-harmonic multitone %+v", m.Tones)
	}
	for i, v := range out {
		if d := math.Abs(v - m.Eval(T*float64(i)/float64(n))); d > maxErr || d != d {
			maxErr = d
		}
	}
	return maxErr, eps
}

// TestEvalGridBound: on the CUT outputs a yield or sweep campaign
// observes — Monte-Carlo dies with 5% component sigma, ±20% f0, Q and
// gain shifts, low-pass and band-pass — every grid sample is within
// eps/1000 of Eval: the proven bound holds with EvalGrid's 1000× margin
// to spare.
func TestEvalGridBound(t *testing.T) {
	stim := paperStimulus(t)
	T := stim.Period()
	const n = 8192
	out := make([]float64, n+1)
	golden, err := biquad.NewAnalyticCUT(biquad.Params{F0: 10e3, Q: 0.9, Gain: 1})
	if err != nil {
		t.Fatal(err)
	}
	dies := 2000
	if testing.Short() {
		dies = 200
	}
	var devs []biquad.Deviation
	for _, s := range []float64{-0.2, -0.1, 0, 0.1, 0.2} {
		devs = append(devs,
			biquad.Deviation{F0Shift: s},
			biquad.Deviation{QShift: s},
			biquad.Deviation{GainShift: s},
			biquad.Deviation{F0Shift: s, QShift: -s, GainShift: s})
	}
	for d := 0; d < dies; d++ {
		src := rng.NewSub(11, uint64(d))
		devs = append(devs, biquad.Deviation{
			RDrift:  src.Gauss(0, 0.05),
			RQDrift: src.Gauss(0, 0.05),
			RGDrift: src.Gauss(0, 0.05),
			CDrift:  src.Gauss(0, 0.05),
		})
	}
	worst, minEps, outputs := 0.0, math.Inf(1), 0
	for i, dev := range devs {
		cut, err := golden.Perturb(dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, obs := range []biquad.Output{biquad.OutputLP, biquad.OutputBP} {
			if obs == biquad.OutputBP && i%2 == 1 && i >= 20 {
				continue // every shift and every other die on band-pass
			}
			w, err := cut.Output(stim, obs)
			if err != nil {
				t.Fatal(err)
			}
			maxErr, eps := gridError(t, w.(*wave.Multitone), T, n, out)
			if !(maxErr <= eps/1000) {
				t.Fatalf("%v output %d: max |approx − Eval| = %g exceeds eps/1000 = %g", dev, obs, maxErr, eps/1000)
			}
			worst, minEps = math.Max(worst, maxErr), math.Min(minEps, eps)
			outputs++
		}
	}
	t.Logf("%d outputs: max error %.3g V, smallest eps %.3g V", outputs, worst, minEps)
	if worst == 0 {
		t.Fatal("approximation is bit-exact everywhere: the test is not measuring anything")
	}
}

// TestEvalGridRejectsUncovered: grids outside the bound's assumptions
// report ok = false and leave the output untouched.
func TestEvalGridRejectsUncovered(t *testing.T) {
	stim := paperStimulus(t)
	T := stim.Period()
	tone := func(freq, phase float64) *wave.Multitone {
		m, err := wave.NewMultitone(0.5, 5e3, []int{1}, []float64{0.2}, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		m.Tones[0].Freq, m.Tones[0].Phase = freq, phase
		return m
	}
	cases := []struct {
		name string
		m    *wave.Multitone
		T    float64
		n    int
		len  int
	}{
		{"non-integer harmonic", tone(7.5e3, 0), T, 8192, 8193},
		{"harmonic off by 1e-9", tone(5e3*(1+1e-9), 0), T, 8192, 8193},
		{"n not a multiple of 4", stim, T, 8190, 8191},
		{"n = 2", stim, T, 2, 3},
		{"phase above 4π", tone(5e3, 4*math.Pi+0.1), T, 8192, 8193},
		{"phase below −4π", tone(5e3, -13), T, 8192, 8193},
		{"NaN phase", tone(5e3, math.NaN()), T, 8192, 8193},
		{"grid longer than a period", stim, T, 8192, 8194},
		{"zero span", stim, 0, 8192, 8193},
		{"infinite span", stim, math.Inf(1), 8192, 8193},
	}
	for _, c := range cases {
		out := make([]float64, c.len)
		for i := range out {
			out[i] = -1
		}
		if _, ok := c.m.EvalGrid(c.T, c.n, out); ok {
			t.Errorf("%s: EvalGrid ok = true, want false", c.name)
		}
		for i, v := range out {
			if v != -1 {
				t.Fatalf("%s: rejected grid wrote out[%d] = %g", c.name, i, v)
			}
		}
	}
	// The in-range neighbours of the rejected cases are accepted.
	for _, m := range []*wave.Multitone{stim, tone(5e3, 4*math.Pi), tone(15e3, -4*math.Pi)} {
		if _, ok := m.EvalGrid(T, 8192, make([]float64, 8193)); !ok {
			t.Errorf("EvalGrid rejected %+v", m.Tones)
		}
	}
}
