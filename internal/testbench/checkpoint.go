package testbench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/campaign"
)

// This file gives the package's shardable reducers (yield and faults)
// their durable form: each campaign.CheckpointReducer couples the
// fold/merge logic with a canonical binary codec over its accumulator
// state, so the distributed fabric can checkpoint a reduction mid-run,
// ship per-shard accumulator blobs between mcserved instances, and
// restore them bit-exactly.
//
// Every codec frames its payload with a 4-byte magic so a job log can
// never replay one campaign's blob into another's accumulator, and every
// decoder rejects malformed input — truncation, trailing bytes, counts
// that cannot have come from a real run — instead of constructing an
// accumulator that misbehaves later (the contract the stat codecs set,
// exercised by FuzzShardBlobUnmarshal).

var (
	yieldBlobMagic = [4]byte{'M', 'C', 'Y', '1'}
	faultBlobMagic = [4]byte{'M', 'C', 'F', '1'}
)

// yieldReducer is the checkpointable reduction of the yield campaign:
// four exact integer counters, merged by addition, encoded as magic
// "MCY1" followed by four uvarints (trueGood, pass, escapes, overkill).
func yieldReducer() campaign.CheckpointReducer[yieldVerdict, yieldCounts] {
	return campaign.CheckpointReducer[yieldVerdict, yieldCounts]{
		Reducer: campaign.Reducer[yieldVerdict, yieldCounts]{
			Fold: func(acc yieldCounts, _ int, v yieldVerdict) yieldCounts {
				return acc.foldVerdict(v.truthGood, v.pass)
			},
			Merge: func(into, next yieldCounts) yieldCounts {
				into.trueGood += next.trueGood
				into.pass += next.pass
				into.escapes += next.escapes
				into.overkill += next.overkill
				return into
			},
		},
		Marshal: func(acc yieldCounts) ([]byte, error) {
			buf := append(make([]byte, 0, 24), yieldBlobMagic[:]...)
			for _, v := range []int{acc.trueGood, acc.pass, acc.escapes, acc.overkill} {
				buf = binary.AppendUvarint(buf, uint64(v))
			}
			return buf, nil
		},
		Unmarshal: func(data []byte) (yieldCounts, error) {
			var vals [4]int
			if err := decodeCounts(data, yieldBlobMagic, vals[:]); err != nil {
				return yieldCounts{}, fmt.Errorf("testbench: yield blob: %w", err)
			}
			acc := yieldCounts{trueGood: vals[0], pass: vals[1], escapes: vals[2], overkill: vals[3]}
			// Escapes come out of passing dies and overkill out of good
			// ones; counts violating that cannot be a reachable state.
			if acc.escapes > acc.pass || acc.overkill > acc.trueGood {
				return yieldCounts{}, errors.New("testbench: yield blob: inconsistent counts")
			}
			return acc, nil
		},
	}
}

// faultReducer is the checkpointable reduction of the component-fault
// campaign: an ordered slice of scored cases, merged by concatenation
// (chunk order is fault order), encoded as magic "MCF1" followed by the
// JSON array of cases — the cases carry floats whose JSON form
// round-trips exactly, and identical case slices marshal to identical
// bytes, so the encoding is canonical.
func faultReducer() campaign.CheckpointReducer[FaultCase, []FaultCase] {
	return campaign.CheckpointReducer[FaultCase, []FaultCase]{
		Reducer: campaign.Reducer[FaultCase, []FaultCase]{
			Fold:  func(acc []FaultCase, _ int, c FaultCase) []FaultCase { return append(acc, c) },
			Merge: func(into, next []FaultCase) []FaultCase { return append(into, next...) },
		},
		Marshal: func(acc []FaultCase) ([]byte, error) {
			payload, err := json.Marshal(acc)
			if err != nil {
				return nil, fmt.Errorf("testbench: fault blob: %w", err)
			}
			return append(append(make([]byte, 0, 4+len(payload)), faultBlobMagic[:]...), payload...), nil
		},
		Unmarshal: func(data []byte) ([]FaultCase, error) {
			payload, err := checkMagic(data, faultBlobMagic)
			if err != nil {
				return nil, fmt.Errorf("testbench: fault blob: %w", err)
			}
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.DisallowUnknownFields()
			var cases []FaultCase
			if err := dec.Decode(&cases); err != nil {
				return nil, fmt.Errorf("testbench: fault blob: %w", err)
			}
			if dec.More() {
				return nil, errors.New("testbench: fault blob: trailing data")
			}
			return cases, nil
		},
	}
}

// checkMagic strips a blob's 4-byte frame, rejecting short or
// mismatched input.
func checkMagic(data []byte, magic [4]byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("truncated magic")
	}
	if [4]byte(data[:4]) != magic {
		return nil, errors.New("bad magic")
	}
	return data[4:], nil
}

// decodeCounts decodes a fixed run of non-negative uvarint counters
// after the magic frame, rejecting truncation, trailing bytes, and
// values that do not fit an int.
func decodeCounts(data []byte, magic [4]byte, dst []int) error {
	rest, err := checkMagic(data, magic)
	if err != nil {
		return err
	}
	for i := range dst {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return errors.New("truncated counter")
		}
		if v > math.MaxInt64 {
			return errors.New("counter overflow")
		}
		// binary.Uvarint tolerates padded encodings; the canonical codec
		// must not (equal state, equal bytes — the checkpoint contract).
		if n != uvarintLen(v) {
			return errors.New("non-minimal counter encoding")
		}
		dst[i] = int(v)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes", len(rest))
	}
	return nil
}

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
