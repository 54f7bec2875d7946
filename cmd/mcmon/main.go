// Command mcmon runs the repository's Monte-Carlo studies on the
// campaign registry.
//
// Without flags it studies the monitor under process variation: it
// traces one Table I boundary across Monte Carlo dies, prints the 95%
// envelope, and shows the spread histogram of the boundary position at a
// chosen x.
//
// -campaign runs any registered campaign from its declarative spec;
// -params takes the campaign's JSON params, -list enumerates the
// catalogue (names, param schemas, defaults) straight from the registry:
//
//	mcmon -list
//	mcmon -monitor 3 -dies 500 -x 0.4 -workers 4
//	mcmon -campaign noisesweep -params '{"trials":5}' -workers 8
//	mcmon -campaign faults -backend=spice     # fault campaign on the netlist engine
//	mcmon -backend=spice                      # shorthand for the same
//
// Campaign trials fan out across the campaign worker pool (-workers 0 =
// all CPUs); the output is bit-identical at any worker count. Ctrl-C
// cancels the campaign mid-flight through the same context plumbing the
// mcserved HTTP service uses.
//
// -cpuprofile and -memprofile write pprof profiles of the campaign for
// `go tool pprof`, so hot spots can be inspected without editing code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mos"
	"repro/internal/prof"
	"repro/internal/stat"
	"repro/internal/testbench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "enumerate registered campaigns, param schemas and defaults, then exit")
		name     = flag.String("campaign", "", "registered campaign to run (see -list)")
		params   = flag.String("params", "", "campaign params as JSON (defaults apply to omitted fields)")
		backend  = flag.String("backend", "", "CUT backend for the campaign: "+strings.Join(core.Backends(), " or ")+" (implies -campaign faults when none is named)")
		monIdx   = flag.Int("monitor", 3, "Table I monitor number (1-6) for the monitor study")
		dies     = flag.Int("dies", 500, "number of Monte Carlo dies for the monitor study")
		x        = flag.Float64("x", 0.4, "x column for the monitor study's spread histogram")
		seed     = flag.Uint64("seed", 1, "campaign seed")
		workers  = flag.Int("workers", 0, "worker pool size (0 = all CPUs)")
		tol      = flag.Float64("tol", 0.05, "calibration tolerance for the fault campaign shorthand")
		progress = flag.Bool("progress", false, "print live trial progress to stderr")
	)
	profiler := prof.FlagVars(nil)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := profiler.Around(func() error {
		switch {
		case *list:
			return runList()
		case *name != "" || *backend != "":
			// The campaign path takes its knobs from the spec; reject the
			// monitor-study flags (and -tol, which only feeds the faults
			// shorthand's calibration) instead of silently dropping them.
			var conflict error
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "monitor", "dies", "x":
					conflict = fmt.Errorf("-%s applies to the monitor study and conflicts with -campaign/-backend (use -params)", f.Name)
				case "tol":
					if *name != "" {
						conflict = fmt.Errorf("-tol only feeds the -backend fault shorthand; with -campaign pass the tolerance in -params")
					}
				}
			})
			if conflict != nil {
				return conflict
			}
			return runCampaign(ctx, *name, *params, *backend, *seed, *workers, *tol, *progress)
		default:
			// The monitor study ignores the campaign knobs; reject the
			// conflicting combination instead of silently dropping them.
			var conflict error
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "params", "tol":
					conflict = fmt.Errorf("-%s needs -campaign or -backend", f.Name)
				}
			})
			if conflict != nil {
				return conflict
			}
			return runMonitorStudy(ctx, *monIdx, *dies, *x, *seed, *workers)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcmon:", err)
		os.Exit(1)
	}
}

// runList prints the registry catalogue.
func runList() error {
	fmt.Println("registered campaigns (spec fields: campaign, backend, seed, workers, chunk, checkpoint, params):")
	for _, info := range testbench.List() {
		fmt.Printf("\n  %-11s %s\n", info.Name, info.Summary)
		for _, p := range info.Params {
			def, err := json.Marshal(p.Default)
			if err != nil {
				def = []byte("?")
			}
			fmt.Printf("      %-16s %-10s = %s\n", p.Name, p.Type, def)
		}
	}
	return nil
}

// runCampaign executes one registered campaign from its spec pieces.
// An empty name with a backend set keeps the historic shorthand: the
// component fault campaign on that backend.
func runCampaign(ctx context.Context, name, params, backend string, seed uint64, workers int, tol float64, progress bool) error {
	spec := testbench.Spec{
		Campaign: name,
		Backend:  backend,
		Seed:     seed,
		Workers:  workers,
	}
	if params != "" {
		spec.Params = json.RawMessage(params)
	}
	if name == "" {
		spec.Campaign = "faults"
		if params == "" {
			spec.Params = testbench.FaultsParams{Tol: tol}
		}
	}
	var opts []testbench.Option
	if progress {
		opts = append(opts, testbench.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	res, err := testbench.Run(ctx, spec, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s (backend %s, %v)\n", res.Spec.Campaign,
		orDefault(res.Spec.Backend, core.Backends()[0]), res.Elapsed.Round(1e6))
	if res.Text == "" {
		return json.NewEncoder(os.Stdout).Encode(res.Payload)
	}
	fmt.Print(res.Text)
	return nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// runMonitorStudy is the historic default: the Fig. 4 MC envelope plus a
// boundary spread histogram, both on the campaign engine.
func runMonitorStudy(ctx context.Context, monIdx, dies int, x float64, seed uint64, workers int) error {
	if monIdx < 1 || monIdx > 6 {
		return fmt.Errorf("monitor number %d out of 1-6", monIdx)
	}
	env, err := testbench.Run(ctx, testbench.Spec{
		Campaign: "fig4mc",
		Seed:     seed,
		Workers:  workers,
		Params:   testbench.Fig4MCParams{Monitor: monIdx - 1, Dies: dies, Cols: 21},
	})
	if err != nil {
		return err
	}
	fmt.Print(env.Text)
	return spreadStudy(ctx, os.Stdout, monIdx, dies, x, seed, workers)
}

// spreadFineBins sizes the quantile histogram of the spread study: the
// 95% interval is read off a 2^14-bin histogram over the spread range,
// so its absolute error is bounded by range/2^14 — orders of magnitude
// under the %.4f the study prints for any boundary spread the monitors
// produce.
const spreadFineBins = 1 << 14

// spreadStudy prints the boundary spread histogram at one x column,
// fully streamed: no per-die slice is ever retained. Pass one folds
// exact extrema and running moments (Welford); pass two re-derives the
// same deterministic dies into two single-pass histograms over the now
// known range — the 15-bin display histogram (binned exactly as the
// materializing path binned, so the bars are bit-identical) and a fine
// quantile histogram for the 95% interval. Peak memory is
// O(workers + chunk + bins) instead of O(dies).
func spreadStudy(ctx context.Context, w io.Writer, monIdx, dies int, x float64, seed uint64, workers int) error {
	cfg := monitor.TableI()[monIdx-1]
	a := monitor.MustAnalytic(cfg)
	variation := mos.Default65nmVariation()
	eng := campaign.Engine{Workers: workers, Seed: seed + 1}
	// Every die derives its stream inside the worker as a pure function
	// of (seed, die), so the two passes see identical values.
	trial := func(d int) (float64, error) {
		die := variation.SampleDie(eng.Stream(d))
		devs := a.Devices()
		for j := range devs {
			devs[j] = die.Perturb(devs[j])
		}
		if y, ok := a.WithDevices(devs).BoundaryY(x, 0, 1); ok {
			return y, nil
		}
		return math.NaN(), nil
	}
	moments, err := campaign.Reduce(ctx, eng, dies,
		campaign.Reducer[float64, *stat.Running]{
			New: func() *stat.Running { return new(stat.Running) },
			Fold: func(acc *stat.Running, _ int, y float64) *stat.Running {
				if !math.IsNaN(y) {
					acc.Push(y)
				}
				return acc
			},
			Merge: func(into, next *stat.Running) *stat.Running {
				into.Merge(*next)
				return into
			},
		}, trial)
	if err != nil {
		return err
	}
	if moments.N() == 0 {
		_, err := fmt.Fprintf(w, "\nno boundary crossing at x = %.3f\n", x)
		return err
	}
	// Same display range and binning formula as the historic
	// materialize-then-bin path.
	lo, hi := moments.Min()-1e-6, moments.Max()+1e-6
	type hists struct{ disp, fine *stat.StreamingHistogram }
	spread, err := campaign.Reduce(ctx, eng, dies,
		campaign.Reducer[float64, hists]{
			New: func() hists {
				return hists{
					disp: stat.NewStreamingHistogram(lo, hi, 15),
					fine: stat.NewStreamingHistogram(lo, hi, spreadFineBins),
				}
			},
			Fold: func(acc hists, _ int, y float64) hists {
				if !math.IsNaN(y) {
					acc.disp.Push(y)
					acc.fine.Push(y)
				}
				return acc
			},
			Merge: func(into, next hists) hists {
				into.disp.Merge(next.disp)
				into.fine.Merge(next.fine)
				return into
			},
		}, trial)
	if err != nil {
		return err
	}
	p2_5, err := spread.fine.Quantile(0.025)
	if err != nil {
		return err
	}
	p97_5, err := spread.fine.Quantile(0.975)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nboundary y at x = %.3f over %d dies: mean %.4f, std %.4f, 95%% [%.4f, %.4f]\n",
		x, moments.N(), moments.Mean(), moments.StdDev(), p2_5, p97_5)
	b.WriteString(spread.disp.ASCII(40))
	_, err = io.WriteString(w, b.String())
	return err
}
