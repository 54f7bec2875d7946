package testbench

import (
	"bytes"
	"testing"

	"repro/internal/biquad"
)

// FuzzShardBlobUnmarshal throws arbitrary bytes at every shard
// accumulator codec the fabric trusts across process and machine
// boundaries. Each codec must reject what it cannot prove well-formed
// and, for anything it accepts, reach a canonical fixed point in one
// round: Unmarshal → Marshal → Unmarshal reproduces the accumulator,
// and the second Marshal reproduces the first's bytes. Without that, a
// resumed or sharded campaign could silently drift from its checkpoint.
func FuzzShardBlobUnmarshal(f *testing.F) {
	yr := yieldReducer()
	yieldSeed, err := yr.Marshal(yieldCounts{trueGood: 220, pass: 230, escapes: 17, overkill: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(yieldSeed)
	fr := faultReducer()
	faultSeed, err := fr.Marshal([]FaultCase{{Fault: biquad.Fault{Frac: 0.5}, NDF: 0.42, Detected: true}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(faultSeed)
	f.Add([]byte("MCY1"))
	f.Add([]byte("MCF1[]"))
	f.Add([]byte("MCD1\x00")) // a magic neither codec owns
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if counts, err := yr.Unmarshal(data); err == nil {
			blob, err := yr.Marshal(counts)
			if err != nil {
				t.Fatalf("yield: accepted counts failed to re-marshal: %v", err)
			}
			again, err := yr.Unmarshal(blob)
			if err != nil || again != counts {
				t.Fatalf("yield: round trip %+v -> %+v (%v)", counts, again, err)
			}
			if !bytes.Equal(blob, data) {
				t.Fatalf("yield: accepted non-canonical encoding (%d bytes -> %d)", len(data), len(blob))
			}
		}
		if cases, err := fr.Unmarshal(data); err == nil {
			blob, err := fr.Marshal(cases)
			if err != nil {
				t.Fatalf("faults: accepted cases failed to re-marshal: %v", err)
			}
			again, err := fr.Unmarshal(blob)
			if err != nil {
				t.Fatalf("faults: canonical form rejected: %v", err)
			}
			blob2, err := fr.Marshal(again)
			if err != nil {
				t.Fatalf("faults: second re-marshal: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("faults: no canonical fixed point after one round")
			}
		}
	})
}
