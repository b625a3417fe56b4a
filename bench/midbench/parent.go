package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	exe      string // this binary, run again as the child
	figures  string // the cmd/figures binary
	noop     string // the bench/noop binary, which calibrates set-up times
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome, printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupLaunches is how many set-up-only launches setup_s is the median of.
const setupLaunches = 11

// runTimeout bounds a whole run, children included.
const runTimeout = 170 * time.Second

// Paths relative to the repository root, where the benchmark runs.
const (
	goldenPath = "bench/testdata/golden.json"
	spansPath  = ".bench_build/midbench-spans.json"
)

// goldenSeeds are the seeds with committed digests: the default seed and
// the seed held out for checking claims.
var goldenSeeds = []int64{2024, 7}

// goldenFile maps workload → seed → digest of one iteration's outputs.
type goldenFile map[string]map[string]string

func loadGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// digestCheck compares iteration digests with the golden digest of the
// seed or, for a seed without one, with the first digest seen.
type digestCheck struct{ want string }

func newDigestCheck(o options, workload string) (*digestCheck, error) {
	if o.scale != "full" {
		return &digestCheck{}, nil
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	return &digestCheck{want: g[workload][strconv.FormatInt(o.seed, 10)]}, nil
}

func (c *digestCheck) ok(d string) bool {
	if c.want == "" {
		c.want = d
	}
	return d == c.want
}

// run measures one workload and prints the human-readable report
// followed by the result line.
func run(o options, stdout io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var res result
	var err error
	switch {
	case o.trace:
		res, err = measureLedger(ctx, o, stdout)
	case o.workload == "figures":
		res, err = measureFigures(ctx, o, stdout)
	default:
		res, err = measureInproc(ctx, o, stdout)
	}
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return res, err
}

func (o options) seedArg() string { return strconv.FormatInt(o.seed, 10) }

// figuresArgs is the figures workload's command line.
func (o options) figuresArgs(parallel string) []string {
	args := []string{"-quick", "-seed", o.seedArg(), "-parallel", parallel}
	if only := scales[o.scale].figureOnly; only != "" {
		args = append(args, "-only", only)
	}
	return args
}

// launchNominal is about the CPU time of a bench/noop launch on the idle
// reference host; see README.md.
const launchNominal = 500 * time.Microsecond

// setupTimes launches a program setupLaunches times and returns each
// launch's exec-to-exit CPU time as seconds on the reference host. CPU
// time, unlike wall time, leaves out steal and run-queue waits; at a few
// milliseconds a launch, a median of 11 does not smooth those away. A
// set-up launch is mostly exec, page faults and Go runtime start-up,
// which a busy host slows differently from computation. So each one is
// scaled by the mean of a bench/noop launch on either side of it, not by
// the compute kernel.
func setupTimes(ctx context.Context, noop, name string, args ...string) ([]float64, error) {
	ref := func() (time.Duration, error) {
		p, err := launch(ctx, false, io.Discard, noop)
		return p.cpu, err
	}
	before, err := ref()
	if err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < setupLaunches; i++ {
		p, err := launch(ctx, false, io.Discard, name, args...)
		if err != nil {
			return nil, err
		}
		after, err := ref()
		if err != nil {
			return nil, err
		}
		ts = append(ts, p.cpu.Seconds()*float64(launchNominal)/float64((before+after)/2))
		before = after
	}
	return ts, nil
}

// timings collects one run's per-iteration times, raw and scaled to the
// reference host, and the resident sets of its measuring processes.
type timings struct {
	walls, cpus, rawWalls, rawCPUs, stolen, cals []float64
	rss, peaks                                   []float64
}

// addMemory records a measuring process's resident set.
func (t *timings) addMemory(p proc) {
	t.rss = append(t.rss, p.rss)
	t.peaks = append(t.peaks, float64(p.maxRSS)/1024)
}

// add records an iteration that ran for active (stops excluded), of
// which stolen was steal time, and used cpu.
func (t *timings) add(active, stolen, cpu, cal time.Duration) {
	t.walls = append(t.walls, scaled(active-stolen, cal))
	t.cpus = append(t.cpus, scaled(cpu, cal))
	t.rawWalls = append(t.rawWalls, active.Seconds())
	t.rawCPUs = append(t.rawCPUs, cpu.Seconds())
	t.stolen = append(t.stolen, stolen.Seconds()/active.Seconds())
	t.cals = append(t.cals, float64(cal)/1e6)
}

// endToEndMetrics assembles the end-to-end metrics and prints their lines.
func endToEndMetrics(w io.Writer, t *timings, setups []float64, attempted, failed int) map[string]metricValue {
	values := map[string][]float64{"wall_s": t.walls, "cpu_s": t.cpus, "rss_p90_mb": t.rss, "setup_s": setups}
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		fmt.Fprintln(w, summary(m.Name, m.Unit, values[m.Name]))
		out[m.Name] = metricValue{Value: median(values[m.Name]), Unit: m.Unit}
	}
	fmt.Fprintln(w, summary("peak rss", "MB", t.peaks))
	fmt.Fprintf(w, "%-14s %d/%d iterations\n", "failed_frac", failed, attempted)
	fmt.Fprintf(w, "unscaled       wall %.6g s (%.1f%% stolen), cpu %.6g s; calibration %.4g ms (nominal %v)\n",
		median(t.rawWalls), 100*median(t.stolen), median(t.rawCPUs), median(t.cals), calibNominal)
	return out
}

// measureInproc runs an in-process workload in a child: set-up-only
// launches for setup_s, then one paced measuring launch.
func measureInproc(ctx context.Context, o options, w io.Writer) (result, error) {
	check, err := newDigestCheck(o, o.workload)
	if err != nil {
		return result{}, err
	}
	base := []string{"-child", o.workload, "-seed", o.seedArg(), "-scale", o.scale}
	setups, err := setupTimes(ctx, o.noop, o.exe, append(base, "-setup-only")...)
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	p, err := launch(ctx, true, &out, o.exe, append(base, "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))...)
	if err != nil {
		return result{}, err
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return result{}, fmt.Errorf("child report: %w", err)
	}
	res := result{}
	for i, s := range append([]sample{rep.Warmup}, rep.Iters...) {
		res.Attempted++
		if s.Err != "" || !check.ok(s.Digest) {
			res.Failed++
			fmt.Fprintf(w, "iteration %d failed: digest %s %s\n", i, s.Digest, s.Err)
		}
	}
	var t timings
	for _, s := range rep.Iters {
		active, pauseSteal, cal := p.pauses.over(time.Unix(0, s.StartNs), time.Unix(0, s.EndNs))
		t.add(active, time.Duration(s.StealNs)-pauseSteal, time.Duration(s.CPUNs), cal)
	}
	t.addMemory(p)
	fmt.Fprintf(w, "workload %s seed %d: warm-up, then %d iterations; %d calibrations\n", o.workload, o.seed, len(rep.Iters), len(p.pauses))
	res.Metrics = endToEndMetrics(w, &t, setups, res.Attempted, res.Failed)
	res.Correct = res.Failed == 0
	return res, nil
}

// measureFigures launches the real cmd/figures once per iteration in a
// closed loop, paced. Every launch is a fresh process, so none is
// dropped as a warm-up.
func measureFigures(ctx context.Context, o options, w io.Writer) (result, error) {
	check, err := newDigestCheck(o, "figures")
	if err != nil {
		return result{}, err
	}
	setups, err := setupTimes(ctx, o.noop, o.figures, "-quick", "-seed", o.seedArg(), "-parallel", "2", "-only", "none")
	if err != nil {
		return result{}, err
	}
	var t timings
	res := result{}
	limit := time.Duration(o.seconds * float64(time.Second))
	for start := now(); res.Attempted < minIters || now().Sub(start) < limit; {
		h := newHash()
		p, err := launch(ctx, true, h, o.figures, o.figuresArgs("2")...)
		res.Attempted++
		if err != nil {
			return result{}, err
		}
		if d := h.hex(); !check.ok(d) {
			res.Failed++
			fmt.Fprintf(w, "iteration %d failed: stdout digest %s\n", res.Attempted-1, d)
		}
		_, _, cal := p.pauses.over(p.start, p.start.Add(p.wall+p.pauses.paused()))
		t.add(p.wall, p.stolen, p.cpu, cal)
		t.addMemory(p)
	}
	fmt.Fprintf(w, "workload figures seed %d: %d iterations\n", o.seed, res.Attempted)
	res.Metrics = endToEndMetrics(w, &t, setups, res.Attempted, res.Failed)
	res.Correct = res.Failed == 0
	return res, nil
}

// fleetMetrics derives the figure-level layer metrics: one serial time
// per experiment, the slowest of them (no schedule finishes sooner), and
// the idle share of two cores during a -parallel 2 run, steal time left
// out.
func fleetMetrics(keyWalls map[string]float64, par proc) map[string]float64 {
	m := map[string]float64{}
	crit := 0.0
	for k, s := range keyWalls {
		m["experiments."+k+"_s"] = s
		crit = max(crit, s)
	}
	m["fleet.critical_path_s"] = crit
	m["fleet.idle_frac"] = 1 - par.cpu.Seconds()/(2*(par.wall-par.stolen).Seconds())
	return m
}

// measureLedger is the traced run: the in-process ledger child, then
// each figure experiment alone, then one -parallel 2 figures run.
func measureLedger(ctx context.Context, o options, w io.Writer) (result, error) {
	tr := &tracer{}
	root := tr.begin(0, o.workload, "midbench -trace 1")
	var checks []checkResult

	var out bytes.Buffer
	if _, err := launch(ctx, false, &out, o.exe, "-child", "ledger", "-seed", o.seedArg(), "-scale", o.scale); err != nil {
		return result{}, err
	}
	var lr ledgerReport
	if err := json.Unmarshal(out.Bytes(), &lr); err != nil {
		return result{}, fmt.Errorf("ledger report: %w", err)
	}
	tr.merge(root, lr.Spans)
	checks = append(checks, lr.Checks...)
	campaignCheck, err := newDigestCheck(o, "campaign")
	if err != nil {
		return result{}, err
	}
	if campaignCheck.want != "" {
		checks = append(checks, checkResult{Name: "ledger campaign digest equals golden", OK: campaignCheck.ok(lr.CampaignDigest)})
	}

	keyWalls := map[string]float64{}
	calib := newCalibrator()
	for _, key := range figureKeys {
		var out bytes.Buffer
		p, err := launch(ctx, false, &out, o.figures, "-quick", "-seed", o.seedArg(), "-parallel", "1", "-only", key)
		tr.add(root, "figures", "figures -only "+key, p.start, p.wall)
		checks = append(checks, checkResult{Name: "figures -only " + key + " prints output", OK: err == nil && len(bytes.TrimSpace(out.Bytes())) > 0})
		// A serial run uses one core: scale by the calibrations' CPU speed.
		keyWalls[key] = scaled(p.wall, calib.after())
	}
	figCheck, err := newDigestCheck(o, "figures")
	if err != nil {
		return result{}, err
	}
	h := newHash()
	par, err := launch(ctx, false, h, o.figures, o.figuresArgs("2")...)
	tr.add(root, "figures", "figures -parallel 2", par.start, par.wall)
	if err != nil {
		return result{}, err
	}
	checks = append(checks, checkResult{Name: "figures -parallel 2 stdout digest", OK: figCheck.ok(h.hex())})
	tr.end(root)

	values := lr.Metrics
	for k, v := range fleetMetrics(keyWalls, par) {
		values[k] = v
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		v, ok := values[m.Name]
		if !ok {
			return result{}, fmt.Errorf("traced run produced no %s", m.Name)
		}
		fmt.Fprintf(w, "%-34s %12.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, n := range lr.Notes {
		fmt.Fprintln(w, n)
	}
	for _, c := range checks {
		res.Attempted++
		if !c.OK {
			res.Failed++
			fmt.Fprintf(w, "check failed: %s %s\n", c.Name, c.Detail)
		}
	}
	res.Correct = res.Failed == 0
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(tr.spans), spansPath)
	return res, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
