// Command perfbench is the repository's benchmark of record. It drives
// the system only through its public entry points — testbench.Run on a
// warm core.System, serve.Server and serve.Fabric over loopback HTTP,
// fabric.Worker — and prints every metric by name with its unit, after
// checking every output.
//
//	bash perfbench/run.sh --workload yield-analytic --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs the workload once more with spans recorded
// around the calls into each layer and reports the per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/testbench"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, reported on every workload;
// a layer the workload's path does not call reads 0.
var perLayer = []metricDef{
	{"wave.eval_us", "us"},
	{"biquad.output_us", "us"},
	{"biquad.first_output_ms", "ms"},
	{"monitor.classify_us", "us"},
	{"monitor.lut_build_ms", "ms"},
	{"monitor.lut_certified_frac", "frac"},
	{"signature.edge_us", "us"},
	{"signature.edge_classify_calls", "count"},
	{"signature.edges", "count"},
	{"signature.capture_us", "us"},
	{"rng.noise_us", "us"},
	{"ndf.ndf_us", "us"},
	{"core.golden_ms", "ms"},
	{"campaign.chunks", "count"},
	{"campaign.chunk_fold_ms_p50", "ms"},
	{"campaign.worker_busy_frac", "frac"},
	{"testbench.null_calibration_s", "s"},
	{"testbench.calibrate_ms", "ms"},
	{"testbench.run_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.job_latency_p95_s", "s"},
	{"serve.job_latency_samples", "count"},
	{"serve.requests.total", "count"},
	{"serve.requests.v1_campaigns", "count"},
	{"serve.requests.v1_jobs_id", "count"},
	{"serve.requests.metrics", "count"},
	{"fabric.job_latency_p50_s", "s"},
	{"fabric.leases", "count"},
	{"fabric.leases_expired", "count"},
	{"fabric.checkpoint_bytes", "bytes"},
	{"fabric.merge_ms", "ms"},
	{"trace.overhead_us", "us"},
}

func layerMetricNames() []string {
	names := make([]string, len(perLayer))
	for i, d := range perLayer {
		names[i] = d.name
	}
	return names
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runCfg) (*outcome, error){
	"yield-analytic": runCampaign,
	"yield-spice":    runCampaign,
	"noise-capture":  runCampaign,
	"service-mixed":  runService,
}

// outDir holds what a run leaves behind: span files and the service
// workload's throwaway fabric stores. run.sh builds into it too.
const outDir = ".bench_build"

// referenceSeeds is the number of seeds, 0 … referenceSeeds-1, whose
// campaign results reference.json holds.
const referenceSeeds = 32

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	ref      *Reference
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	params            map[string]any
	notes             []string
	spans             []Span
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: yield-analytic, yield-spice, noise-capture or service-mixed")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		writeRef = flag.String("write-reference", "", "recompute every reference value and write them to this file instead of benchmarking")
	)
	flag.Parse()
	ctx := context.Background()
	if *writeRef != "" {
		if err := writeReference(ctx, *writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation and prints its report.
func run(ctx context.Context, cfg runCfg) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if !(cfg.seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	cfg.ref = ref
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prov := Provenance{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds}
	if cfg.trace {
		prov.Trace = 1
	}
	prov.buildInfo()
	prov.ProbeBeforeMs = cpuProbe()
	o, err := runner(ctx, cfg)
	if err != nil {
		return err
	}
	prov.ProbeAfterMs = cpuProbe()
	prov.Params = o.params
	o.metrics["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			return err
		}
		o.notes = append(o.notes, fmt.Sprintf("%d spans written to %s", len(o.spans), path))
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		return err
	}
	return report(os.Stdout, prov, o, res)
}

// buildResult selects the metrics the run reports: every end-to-end
// metric untraced, every per-layer metric traced.
func buildResult(o *outcome, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = o.attempted > 0 && o.failed == 0
	return res, nil
}

// report prints the notes, the provenance, a metric table and, last, the
// result line.
func report(w io.Writer, prov Provenance, o *outcome, res result) error {
	for _, n := range o.notes {
		fmt.Fprintln(w, "#", n)
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# provenance", string(pj))
	fmt.Fprintf(w, "# attempted %d, failed %d (failed_frac %.4f)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(rj))
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeReference recomputes every reference value through testbench.Run
// and writes reference.json: each campaign workload at seeds
// 0 … referenceSeeds-1, and every service job spec.
func writeReference(ctx context.Context, path string) error {
	ref := &Reference{DefaultSeed: 1, HeldOutSeed: 2, Campaign: map[string]map[string]Digest{}, Service: map[string]Digest{}}
	for key, spec := range serviceRefSpecs() {
		d, err := runDigest(ctx, spec)
		if err != nil {
			return err
		}
		ref.Service[key] = d
	}
	for _, w := range workloadNames() {
		if w == "service-mixed" {
			continue
		}
		ref.Campaign[w] = map[string]Digest{}
		for s := 0; s < referenceSeeds; s++ {
			spec, err := campaignSpec(w, uint64(s))
			if err != nil {
				return err
			}
			t := time.Now()
			d, err := runDigest(ctx, spec)
			if err != nil {
				return err
			}
			ref.Campaign[w][fmt.Sprint(s)] = d
			fmt.Fprintf(os.Stderr, "reference %s seed %d (%.1fs)\n", w, s, time.Since(t).Seconds())
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runDigest runs a spec in-process and digests its result.
func runDigest(ctx context.Context, spec testbench.Spec) (Digest, error) {
	res, err := testbench.Run(ctx, spec)
	if err != nil {
		return Digest{}, err
	}
	return digestOf(res)
}
