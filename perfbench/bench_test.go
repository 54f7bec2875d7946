package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestInputsPureInSeed pins that every generated input — the campaign
// specs, the die draws, and the service job sequence — is a function of
// the seed alone, and that another seed gives other inputs.
func TestInputsPureInSeed(t *testing.T) {
	for _, w := range []string{"yield-analytic", "yield-spice", "noise-capture"} {
		a, err := campaignSpec(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := campaignSpec(w, 7)
		c, _ := campaignSpec(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: spec not pure in the seed", w)
		}
		if a.Seed == c.Seed {
			t.Errorf("%s: seeds 7 and 8 give the same campaign seed", w)
		}
	}
	for i := 0; i < 64; i++ {
		if dieDeviation(7, i) != dieDeviation(7, i) {
			t.Fatalf("die %d draw not pure in the seed", i)
		}
	}
	if dieDeviation(7, 3) == dieDeviation(8, 3) {
		t.Error("seeds 7 and 8 draw the same die")
	}

	n := 10 * len(serviceBlock)
	same := true
	for i := 0; i < n; i++ {
		a, b := serviceJobAt(7, i), serviceJobAt(7, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("service job %d not pure in the seed", i)
		}
		if serviceJobAt(8, i).kind != a.kind {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 give the same job sequence")
	}
}

// TestServiceMixProportions pins that every block of the job sequence
// holds exactly the block's kinds, and that every job has a reference.
func TestServiceMixProportions(t *testing.T) {
	want := map[string]int{}
	for _, k := range serviceBlock {
		want[k]++
	}
	for _, tc := range []struct {
		seconds float64
		jobs    int
	}{{1, 200}, {20, 200}, {20.5, 210}, {25, 250}} {
		if got := serviceJobs(tc.seconds); got != tc.jobs {
			t.Errorf("serviceJobs(%v) = %d, want %d", tc.seconds, got, tc.jobs)
		}
	}
	refs := serviceRefSpecs()
	for _, seed := range []uint64{1, 2, 99} {
		for b := 0; b < 20; b++ {
			got := map[string]int{}
			for i := b * len(serviceBlock); i < (b+1)*len(serviceBlock); i++ {
				job := serviceJobAt(seed, i)
				got[job.kind]++
				if _, ok := refs[job.refKey]; !ok {
					t.Fatalf("job %d: no reference spec for %q", i, job.refKey)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d block %d: kinds %v, want %v", seed, b, got, want)
			}
		}
	}
}

// TestTailQuantileNeedsTenBeyond pins the reporting rule: a percentile
// is reported only when at least ten samples lie beyond it.
func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	// p95 of n samples sits at rank 0.95·(n-1): 181 samples leave 9
	// above it, 182 leave 10.
	if _, ok := tailQuantile(mk(181), 0.95); ok {
		t.Error("p95 reported from 181 samples (9 beyond)")
	}
	if _, ok := tailQuantile(mk(182), 0.95); !ok {
		t.Error("p95 not reported from 182 samples (10 beyond)")
	}
	v, ok := tailQuantile(mk(200), 0.95)
	if !ok {
		t.Fatal("p95 not reported from 200 samples")
	}
	if v < 190 || v > 191 {
		t.Errorf("p95 of 1..200 = %v, want within [190, 191]", v)
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
	if got := beyond(21, 0.5); got != 10 {
		t.Errorf("beyond(21, 0.5) = %d, want 10", got)
	}
	if _, ok := tailQuantile(mk(19), 0.5); ok {
		t.Error("p50 reported from 19 samples (9 beyond)")
	}
}

// TestSelfTimeOverlappingChildren checks self time on a synthetic tree
// whose children overlap each other and stick out of their parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "leaf", Start: 35, End: 45},
		{ID: 6, Parent: 1, Name: "a", Start: 20, End: 25}, // inside a
	}
	self := selfTimes(spans)
	// root: children cover [10,60] ∪ [90,100] = 60.
	want := map[int64]int64{1: 40, 2: 30, 3: 20, 4: 30, 5: 10, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	st := aggregate(spans)
	if st.self["a"] != 35 {
		t.Errorf("layer a: self %d, want 35", st.self["a"])
	}
	if got := st.perTrialUs("a", 1); got != 0.035 {
		t.Errorf("perTrialUs = %v, want 0.035", got)
	}
}

// TestHistogramDeltaQuantile checks the bucket interpolation used for
// the chunk-fold median scraped from /metrics.
func TestHistogramDeltaQuantile(t *testing.T) {
	d := histDelta{count: 10, les: []float64{1, 2, 4, 1e300}, buckets: []float64{2, 6, 10, 10}}
	// rank 5 lies in (1, 2]: 3 of the 4 samples there are at or below it.
	if got := d.quantile(0.5); got != 1.75 {
		t.Errorf("p50 = %v, want 1.75", got)
	}
	if got := (histDelta{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}

// TestDigestCompare checks that counts compare exactly and floats to
// the stated relative tolerance.
func TestDigestCompare(t *testing.T) {
	want := Digest{Ints: map[string]int64{"pass": 10}, Floats: map[string]float64{"threshold": 0.5}}
	if err := want.compare(Digest{Ints: map[string]int64{"pass": 10}, Floats: map[string]float64{"threshold": 0.5 * (1 + 1e-12)}}); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	if want.compare(Digest{Ints: map[string]int64{"pass": 11}, Floats: map[string]float64{"threshold": 0.5}}) == nil {
		t.Error("a count off by one passed")
	}
	if want.compare(Digest{Ints: map[string]int64{"pass": 10}, Floats: map[string]float64{"threshold": 0.5 * (1 + 1e-6)}}) == nil {
		t.Error("a float outside the tolerance passed")
	}
	if want.compare(Digest{Ints: map[string]int64{"pass": 10}}) == nil {
		t.Error("a missing value passed")
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestPrintedMetricsDeclared renders both kinds of report and checks that
// every metric printed — in the table and in the result line — is
// declared in BENCHMARK.json with the same unit, that every declared
// metric is printed, and that every name matches [A-Za-z0-9_.-]+.
func TestPrintedMetricsDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, tc := range []struct {
		traced   bool
		declared []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		units := map[string]string{}
		for _, d := range tc.declared {
			units[d.Name] = d.Unit
		}
		o := &outcome{attempted: 1, metrics: map[string]float64{}}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			o.metrics[d.name] = 1.5
		}
		res, err := buildResult(o, tc.traced)
		if err != nil {
			t.Fatal(err)
		}
		out := captureReport(t, o, res)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var last result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		printed := map[string]string{}
		for name, v := range last.Metrics {
			printed[name] = v.Unit
		}
		table := regexp.MustCompile(`^# (\S+)\s+\S+ (\S+)$`)
		for _, l := range lines[:len(lines)-1] {
			if m := table.FindStringSubmatch(l); m != nil && !strings.Contains(l, "provenance") {
				if printed[m[1]] != m[2] {
					t.Errorf("table line %q disagrees with the result line", l)
				}
			}
		}
		if !reflect.DeepEqual(printed, units) {
			t.Errorf("traced=%v: printed %v, declared %v", tc.traced, printed, units)
		}
		for name := range printed {
			if !metricName.MatchString(name) || len(name) > 64 {
				t.Errorf("metric name %q is not a valid name", name)
			}
		}
	}
}

// captureReport renders a report into a string.
func captureReport(t *testing.T, o *outcome, res result) string {
	t.Helper()
	var b strings.Builder
	if err := report(&b, Provenance{}, o, res); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
