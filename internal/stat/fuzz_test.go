package stat

import (
	"bytes"
	"testing"
)

// FuzzStreamingHistogramUnmarshal: arbitrary bytes must never panic the
// histogram decoder, and anything it accepts must re-marshal canonically
// and answer quantiles without panicking — the contract that makes
// histograms safe to ship between shards.
func FuzzStreamingHistogramUnmarshal(f *testing.F) {
	h := NewStreamingHistogram(-1, 2, 12)
	for _, x := range []float64{-5, -0.5, 0, 0.7, 1.9, 12} {
		h.Push(x)
	}
	good, _ := h.MarshalBinary()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("SHG1"))
	f.Add([]byte{9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hh StreamingHistogram
		if err := hh.UnmarshalBinary(data); err != nil {
			return
		}
		back, err := hh.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted histogram failed to re-marshal: %v", err)
		}
		var hh2 StreamingHistogram
		if err := hh2.UnmarshalBinary(back); err != nil {
			t.Fatalf("re-marshalled payload rejected: %v", err)
		}
		again, err := hh2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, again) {
			t.Fatal("re-marshal is not canonical")
		}
		for _, q := range []float64{0, 0.5, 1} {
			if v, err := hh.Quantile(q); err == nil && v != v {
				t.Fatalf("accepted histogram returned NaN quantile at q=%v", q)
			}
		}
	})
}
