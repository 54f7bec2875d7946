package testbench

import (
	"bytes"
	"testing"

	"repro/internal/biquad"
)

func TestYieldBlobRoundTrip(t *testing.T) {
	red := yieldReducer()
	for _, acc := range []yieldCounts{
		{},
		{trueGood: 5, pass: 7, escapes: 3, overkill: 1},
		{trueGood: 1 << 40, pass: 1 << 40, escapes: 9, overkill: 12},
	} {
		blob, err := red.Marshal(acc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := red.Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got != acc {
			t.Fatalf("round trip %+v -> %+v", acc, got)
		}
		// Canonical: equal state re-marshals to equal bytes.
		blob2, err := red.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("non-canonical encoding for %+v", acc)
		}
	}
}

func TestYieldBlobRejectsMalformed(t *testing.T) {
	red := yieldReducer()
	good, err := red.Marshal(yieldCounts{trueGood: 4, pass: 5, escapes: 2, overkill: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte("MC"),
		[]byte("XXXX\x01\x02\x03\x04"),
		good[:len(good)-1],          // truncated counter
		append(good[:4:4], 1, 2, 3), // too few counters
		append(bytes.Clone(good), 0),
		// escapes above pass: unreachable state.
		append([]byte("MCY1"), 0, 5, 6, 0),
	}
	for i, data := range bad {
		if _, err := red.Unmarshal(data); err == nil {
			t.Errorf("case %d: malformed blob accepted", i)
		}
	}
}

func TestFaultBlobRoundTrip(t *testing.T) {
	red := faultReducer()
	cases := []FaultCase{
		{
			Fault:    biquad.Fault{Kind: biquad.FaultParametric, Target: biquad.TargetR, Frac: -0.1},
			Params:   biquad.Params{F0: 1234.5, Q: 0.707, Gain: 1.5},
			NDF:      0.123456789,
			Detected: true,
		},
		{
			Fault:  biquad.Fault{Kind: biquad.FaultOpen, Target: biquad.TargetC},
			Params: biquad.Params{F0: 999.25, Q: 3.5, Gain: 0.25},
			NDF:    0.5,
		},
	}
	blob, err := red.Marshal(cases)
	if err != nil {
		t.Fatal(err)
	}
	got, err := red.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cases) {
		t.Fatalf("round trip %d cases -> %d", len(cases), len(got))
	}
	for i := range got {
		if got[i] != cases[i] {
			t.Fatalf("case %d: %+v -> %+v", i, cases[i], got[i])
		}
	}
	blob2, err := red.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("non-canonical fault encoding")
	}
}

func TestFaultBlobRejectsMalformed(t *testing.T) {
	red := faultReducer()
	bad := [][]byte{
		nil,
		[]byte("MCF1"),
		[]byte("MCF1{"),
		[]byte("MCF1[]extra"),
		[]byte(`MCF1[{"unknown_field": 1}]`),
		[]byte("MCY1[]"),
	}
	for i, data := range bad {
		if _, err := red.Unmarshal(data); err == nil {
			t.Errorf("case %d: malformed blob accepted", i)
		}
	}
}
