// Command figures regenerates every table and figure of the paper's
// evaluation and prints the rows/series each one plots.
//
// The ~30 artifacts are experiment plans (experiments.Plan): one or more
// independent arms plus a reducer. Every arm of every selected figure is
// one leaf job on a single fleet worker pool; once all have finished,
// each figure is reduced from its arms and rendered in figure order,
// making the output byte-identical for any -parallel value.
//
// The multi-scale variability figures (12, 13) regenerate through the
// columnar trace pipeline: their sessions capture to in-memory .xcol
// traces and the plotted series are rebuilt from a projected block scan
// (see docs/ARCHITECTURE.md "Trace pipeline"), with a test pinning the
// scanned series equal to the in-memory ones.
//
// Observability: -obs-listen serves live /metrics, /debug/pprof and
// /debug/vars during the run; -progress prints periodic jobs-done + ETA
// snapshots to stderr; with -csv, a RunManifest (manifest.json) is
// written next to the CSVs recording the config digest, seed and
// toolchain of the run. None of it alters the rendered output.
//
// Usage:
//
//	figures [-quick] [-seed N] [-only fig11,fig12,...|none] [-parallel N]
//	        [-csv DIR] [-obs-listen :9090] [-progress 2s]
//
// -only takes the figure keys (table1, tables23, sec32, fig01..fig24,
// sec7, exta..extf); an unknown key is an error that lists them, and
// none selects nothing (the run prints nothing).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/experiments"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/report"
)

// options carry the CLI flags into run, keeping it testable.
type options struct {
	quick      bool
	seed       int64
	only       string
	csvDir     string
	parallel   int
	obsListen  string
	progress   time.Duration
	cpuProfile string
	memProfile string
	faults     string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var opt options
	flag.BoolVar(&opt.quick, "quick", false, "run shortened sessions")
	flag.Int64Var(&opt.seed, "seed", 2024, "simulation seed")
	flag.StringVar(&opt.only, "only", "", "comma-separated subset, e.g. fig01,fig11,table1 (none selects nothing; an unknown key is an error)")
	flag.StringVar(&opt.csvDir, "csv", "", "also write machine-readable CSV files to this directory")
	flag.IntVar(&opt.parallel, "parallel", 0, "concurrent figure arms (default: GOMAXPROCS; 1 = serial)")
	flag.StringVar(&opt.obsListen, "obs-listen", "", "serve /metrics, /debug/pprof and /debug/vars on this address during the run (\":0\" picks a port)")
	flag.DurationVar(&opt.progress, "progress", 0, "interval between stderr progress snapshots (0 disables)")
	flag.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.StringVar(&opt.faults, "faults", "", "fault-injection spec for campaign-based figures, e.g. rlf=2e-4,abort=0.05,seed=7 (empty disables)")
	flag.Parse()
	stopProf, err := obs.StartProfiles(opt.cpuProfile, opt.memProfile)
	if err != nil {
		log.Fatal(err)
	}
	err = run(opt, os.Stdout, os.Stderr)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// manifestConfig is the digested run configuration for the RunManifest:
// exactly the inputs that determine figure output. Worker count is
// excluded (output is byte-identical for any -parallel value).
type manifestConfig struct {
	Only  string `json:"only,omitempty"`
	Quick bool   `json:"quick"`
	Seed  int64  `json:"seed"`
	// Faults is the -faults spec verbatim; omitted when empty so
	// fault-free manifests keep their historical config digest.
	Faults string `json:"faults,omitempty"`
}

// run regenerates the selected figures, streaming progress to stderr and
// the rendered tables — in deterministic figure order — to stdout.
func run(opt options, stdout, stderr io.Writer) error {
	sched, err := fault.ParseSpec(opt.faults)
	if err != nil {
		return err
	}
	o := experiments.Options{Quick: opt.quick, Seed: opt.seed, Faults: sched}
	var fig1 []experiments.Fig01Row
	var fig9 []experiments.Fig09Row
	var fig11 []experiments.Fig11Row
	all := figures(o, &fig1, &fig9, &fig11)
	wanted := map[string]bool{}
	for _, k := range strings.Split(opt.only, ",") {
		if k = strings.TrimSpace(strings.ToLower(k)); k == "" {
			continue
		}
		if k != "none" && !slices.ContainsFunc(all, func(f figure) bool { return f.key == k }) {
			keys := make([]string, len(all))
			for i, f := range all {
				keys[i] = f.key
			}
			return fmt.Errorf("-only: unknown key %q (valid: %s, or none)", k, strings.Join(keys, ","))
		}
		wanted[k] = true
	}

	var m fleet.Metrics
	t0 := time.Now() //detlint:allow walltime CLI wall-cost accounting for the manifest, never simulation input
	if opt.obsListen != "" || opt.progress > 0 {
		obs.SetEnabled(true)
	}
	if opt.obsListen != "" {
		reg := obs.Default()
		reg.GaugeFunc("fleet_jobs_done", func() float64 { return float64(m.JobsDone.Load()) })
		reg.GaugeFunc("fleet_jobs_total", func() float64 { return float64(m.JobsTotal.Load()) })
		reg.GaugeFunc("run_elapsed_seconds", func() float64 { return time.Since(t0).Seconds() }) //detlint:allow walltime live /metrics gauge, observability only
		srv, err := obs.Serve(opt.obsListen, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "figures: obs endpoint on http://%s (/metrics /debug/pprof /debug/vars)\n", srv.Addr())
	}
	if opt.progress > 0 {
		stop := obs.StartProgress(obs.ProgressConfig{
			W:        stderr,
			Interval: opt.progress,
			Prefix:   "figures",
			Done:     m.JobsDone.Load,
			Total:    m.JobsTotal.Load,
		})
		defer stop()
	}

	var selected []figure
	for _, f := range all {
		if len(wanted) == 0 || wanted[f.key] {
			selected = append(selected, f)
		}
	}
	// One flat job graph: every arm of every selected figure is a leaf on
	// a single fleet, so one figure's slow arms never run one after
	// another while workers idle. A split figure's leaves are keyed
	// "fig19/0".."fig19/3".
	var leaves []fleet.Job[any]
	for _, f := range selected {
		for i := 0; i < f.arms; i++ {
			key := f.key
			if f.arms > 1 {
				key = fmt.Sprintf("%s/%d", f.key, i)
			}
			leaves = append(leaves, fleet.Job[any]{
				Key: key,
				Run: func(context.Context) (any, error) { return f.arm(i) },
			})
		}
	}
	results, err := fleet.Run(context.Background(), leaves, fleet.Options{
		Workers: opt.parallel,
		Metrics: &m,
		Progress: func(done, total int, key string) {
			fmt.Fprintf(stderr, "figures: [%d/%d] %s (%.1fs)\n", done, total, key, time.Since(t0).Seconds()) //detlint:allow walltime stderr progress line, not part of figure output
		},
	})
	// Reduce and render, in figure order, every figure whose arms all
	// succeeded, so -parallel never interleaves or reorders the report.
	out := bufio.NewWriter(stdout)
	for _, f := range selected {
		arms := make([]any, f.arms)
		ok := true
		for i := range arms {
			ok = ok && results[0].Err == nil
			arms[i], results = results[0].Value, results[1:]
		}
		if !ok {
			continue
		}
		if rerr := f.render(out, opt.csvDir, arms); err == nil {
			err = rerr
		}
	}
	if err == nil && len(selected) > 0 {
		if len(wanted) == 0 && fig1 != nil && fig9 != nil && fig11 != nil {
			report.PaperComparison(out, fig1, fig9, fig11)
		}
		fmt.Fprintln(out)
	}
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if opt.csvDir != "" {
		if err := writeManifest(opt, t0, &m); err != nil {
			return err
		}
	}
	return nil
}

// figure is one artifact: its plan's arms, type-erased so the arms of
// every figure share one fleet, and the step that reduces them, renders
// the figure and writes its CSV.
type figure struct {
	key    string
	arms   int
	arm    func(i int) (any, error)
	render func(w io.Writer, csvDir string, arms []any) error
}

// newFigure erases a plan's arm and result types. csv is nil for
// figures without a CSV artifact.
func newFigure[A, R any](key string, p experiments.Plan[A, R], render func(io.Writer, R), csv func(dir string, r R) error) figure {
	return figure{
		key:  key,
		arms: p.Arms,
		arm:  func(i int) (any, error) { return p.Arm(i) },
		render: func(w io.Writer, csvDir string, arms []any) error {
			as := make([]A, len(arms))
			for i, a := range arms {
				as[i] = a.(A)
			}
			r, err := p.Reduce(as)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			render(w, r)
			if csv == nil || csvDir == "" {
				return nil
			}
			return csv(csvDir, r)
		},
	}
}

// keep renders r and also stores it for the closing paper comparison.
func keep[R any](dst *R, render func(io.Writer, R)) func(io.Writer, R) {
	return func(w io.Writer, r R) {
		*dst = r
		render(w, r)
	}
}

// figures lists every artifact in report order. Figures 17–19, §7 and
// the extension sweeps split into arms; the rest are one-arm plans.
func figures(o experiments.Options, fig1 *[]experiments.Fig01Row, fig9 *[]experiments.Fig09Row, fig11 *[]experiments.Fig11Row) []figure {
	return []figure{
		newFigure("table1", experiments.Single(o, experiments.Table1), report.Table1, nil),
		newFigure("tables23", experiments.Single(o, experiments.Tables23), report.Tables23, nil),
		newFigure("sec32", experiments.Single(o, experiments.Sec32), report.Sec32, nil),
		newFigure("fig01", experiments.Single(o, experiments.Fig01), keep(fig1, report.Fig01), report.Fig01CSV),
		newFigure("fig02", experiments.Single(o, experiments.Fig02), report.Fig02, report.Fig02CSV),
		newFigure("fig03", experiments.Single(o, experiments.Fig03), report.Fig03, nil),
		newFigure("fig04", experiments.Single(o, experiments.Fig04), report.Fig04, nil),
		newFigure("fig05", experiments.Single(o, experiments.Fig05), report.Fig05, nil),
		newFigure("fig06", experiments.Single(o, experiments.Fig06), report.Fig06, nil),
		newFigure("fig07", experiments.Single(o, experiments.Fig07), report.Fig07, nil),
		newFigure("fig08", experiments.Single(o, experiments.Fig08), report.Fig08, nil),
		newFigure("fig09", experiments.Single(o, experiments.Fig09), keep(fig9, report.Fig09), report.Fig09CSV),
		newFigure("fig10", experiments.Single(o, experiments.Fig10), report.Fig10, nil),
		newFigure("fig11", experiments.Single(o, experiments.Fig11), keep(fig11, report.Fig11), report.Fig11CSV),
		newFigure("fig12", experiments.Single(o, experiments.Fig12), report.Fig12, report.Fig12CSV),
		newFigure("fig13", experiments.Single(o, experiments.Fig13), report.Fig13, nil),
		newFigure("fig14", experiments.Single(o, experiments.Fig14), report.Fig14, nil),
		newFigure("fig15", experiments.Single(o, experiments.Fig15), report.Fig15, nil),
		newFigure("fig16", experiments.Single(o, experiments.Fig16), report.Fig16, nil),
		newFigure("fig17", experiments.Fig17Plan(o), report.Fig17, report.Fig17CSV),
		newFigure("fig18", experiments.Fig18Plan(o), report.Fig18, report.Fig18CSV),
		newFigure("fig19", experiments.Fig19Plan(o), report.Fig19, nil),
		newFigure("fig23", experiments.Single(o, experiments.Fig23), report.Fig23, nil),
		newFigure("fig24", experiments.Single(o, experiments.Fig24), report.Fig24, nil),
		newFigure("sec7", experiments.Sec7Plan(o), report.Sec7, report.Sec7CSV),
		newFigure("exta", experiments.Single(o, experiments.ExtNSAvsSA), report.ExtNSAvsSA, nil),
		newFigure("extb", experiments.ExtTDDSweepPlan(o), report.ExtTDDSweep, nil),
		newFigure("extc", experiments.ExtABRComparisonPlan(o), report.ExtABR, nil),
		newFigure("extd", experiments.ExtSchedulersPlan(o), report.ExtSchedulers, nil),
		newFigure("exte", experiments.Single(o, experiments.ExtTransport), report.ExtTransport, nil),
		newFigure("extf", experiments.Single(o, experiments.ExtHandover), report.ExtHandover, nil),
	}
}

// writeManifest records the run next to its CSV outputs so every figure
// is reproducible from the manifest's config digest and seed.
func writeManifest(opt options, t0 time.Time, m *fleet.Metrics) error {
	man, err := obs.NewManifest("figures", manifestConfig{Only: opt.only, Quick: opt.quick, Seed: opt.seed, Faults: opt.faults})
	if err != nil {
		return err
	}
	man.Seed = opt.seed
	man.Workers = fleet.EffectiveWorkers(opt.parallel)
	man.WallSeconds = time.Since(t0).Seconds() //detlint:allow walltime manifest wall-cost field, excluded from the config digest
	man.JobsDone = m.JobsDone.Load()
	entries, err := os.ReadDir(opt.csvDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			man.Outputs = append(man.Outputs, e.Name())
		}
	}
	return obs.WriteManifest(filepath.Join(opt.csvDir, "manifest.json"), man)
}
