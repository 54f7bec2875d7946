package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/testbench"
)

// relTol is the relative tolerance thresholds and NDFs are checked to.
// Counts (yield verdicts, detections, false alarms) are checked exactly.
const relTol = 1e-9

// Digest is the checked summary of one campaign payload: exact integer
// counts plus floating-point values compared to relTol.
type Digest struct {
	Ints   map[string]int64   `json:"ints,omitempty"`
	Floats map[string]float64 `json:"floats,omitempty"`
}

// Reference holds the expected digests the benchmark checks its runs
// against: per campaign workload and seed, and per service job spec.
type Reference struct {
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	// Campaign maps workload name -> decimal seed -> digest.
	Campaign map[string]map[string]Digest `json:"campaign"`
	// Service maps a service job's reference key (see serviceJob) to the
	// digest its payload must match.
	Service map[string]Digest `json:"service"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReference parses the embedded reference values.
func loadReference() (*Reference, error) {
	var ref Reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// campaignDigest returns the stored digest for a workload and seed.
func (r *Reference) campaignDigest(workload string, seed uint64) (Digest, bool) {
	d, ok := r.Campaign[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// digestOf summarizes a campaign result for checking.
func digestOf(res *testbench.Result) (Digest, error) {
	d := Digest{Ints: map[string]int64{}, Floats: map[string]float64{}}
	switch p := res.Payload.(type) {
	case *testbench.Yield:
		d.Ints["n"] = int64(p.N)
		d.Ints["true_good"] = int64(p.TrueGood)
		d.Ints["pass"] = int64(p.PassCount)
		d.Ints["escapes"] = int64(p.Escapes)
		d.Ints["overkill"] = int64(p.Overkill)
		d.Floats["threshold"] = p.Threshold
	case *testbench.Noise:
		params, ok := res.Spec.Params.(*testbench.NoiseParams)
		if !ok {
			return d, fmt.Errorf("noise result carries params %T", res.Spec.Params)
		}
		d.Floats["threshold"] = p.Threshold
		d.Ints["false_alarms"] = rateCount(p.FalseRate, params.Trials)
		for i, r := range p.Detect {
			d.Ints[fmt.Sprintf("detect_%d", i)] = rateCount(r, params.Trials)
		}
	case *testbench.Fig7:
		d.Floats["ndf"] = p.NDF
		d.Ints["points"] = int64(len(p.Times))
		d.Ints["golden_dec_sum"] = sumInts(p.GoldenDec)
		d.Ints["defect_dec_sum"] = sumInts(p.DefectDec)
		d.Ints["hamming_sum"] = sumInts(p.Hamming)
	case *testbench.Fig8:
		d.Floats["threshold"] = p.Threshold
		for i, v := range p.NDFs {
			d.Floats[fmt.Sprintf("ndf_%02d", i)] = v
		}
	case *testbench.FaultTable:
		d.Floats["threshold"] = p.Threshold
		detected := 0
		for i, c := range p.Cases {
			d.Floats[fmt.Sprintf("ndf_%02d", i)] = c.NDF
			if c.Detected {
				detected++
			}
		}
		d.Ints["cases"] = int64(len(p.Cases))
		d.Ints["detected"] = int64(detected)
	default:
		return d, fmt.Errorf("no digest for payload %T", res.Payload)
	}
	return d, nil
}

// rateCount turns a rate measured over trials back into its count.
func rateCount(rate float64, trials int) int64 {
	return int64(math.Round(rate * float64(trials)))
}

func sumInts(xs []int) int64 {
	var t int64
	for _, x := range xs {
		t += int64(x)
	}
	return t
}

// compare reports the first difference between got and want: any integer
// that differs, any float outside relTol, or a key present on one side
// only.
func (want Digest) compare(got Digest) error {
	for _, k := range sortedKeys(want.Ints, got.Ints) {
		w, okW := want.Ints[k]
		g, okG := got.Ints[k]
		if !okW || !okG || w != g {
			return fmt.Errorf("%s: got %d (present %v), want %d (present %v)", k, g, okG, w, okW)
		}
	}
	for _, k := range sortedKeys(want.Floats, got.Floats) {
		w, okW := want.Floats[k]
		g, okG := got.Floats[k]
		if !okW || !okG || math.Abs(g-w) > relTol*math.Max(math.Abs(w), math.Abs(g)) {
			return fmt.Errorf("%s: got %.17g (present %v), want %.17g (present %v)", k, g, okG, w, okW)
		}
	}
	return nil
}

// sortedKeys returns the union of two maps' keys in order.
func sortedKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
