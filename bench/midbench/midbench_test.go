package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The parent tests launch this test binary as the midbench child.
func TestMain(m *testing.M) {
	if os.Getenv("MIDBENCH_TEST_CHILD") == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "midbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	figuresPath = filepath.Join(dir, "figures")
	noopPath = filepath.Join(dir, "noop")
	calibSteps = 1 << 10
	// For the children the tests launch: run as midbench, and exit without
	// the race detector's one-second wait.
	os.Setenv("MIDBENCH_TEST_CHILD", "1")
	os.Setenv("GORACE", "atexit_sleep_ms=0")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	buildOnce   sync.Once
	figuresPath string
	noopPath    string
	buildErr    error
)

// figuresBinary builds cmd/figures and bench/noop once per test run and
// returns the figures binary.
func figuresBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		for path, pkg := range map[string]string{
			figuresPath: "github.com/midband5g/midband/cmd/figures",
			noopPath:    "github.com/midband5g/midband/bench/noop",
		} {
			if out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("building %s: %v\n%s", pkg, err, out)
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return figuresPath
}

func smokeOptions(t *testing.T, workload string) options {
	return options{
		workload: workload, seed: 11, seconds: 0.2, scale: "smoke",
		exe: os.Args[0], figures: figuresBinary(t), noop: noopPath,
	}
}

func TestSmokeDigestsRepeat(t *testing.T) {
	for _, wl := range []string{"campaign", "cell64", "qoe"} {
		w, err := setupWorkload(wl, 5, scales["smoke"])
		if err != nil {
			t.Fatal(err)
		}
		d1, err1 := w.run()
		d2, err2 := w.run()
		w.cleanup()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", wl, err1, err2)
		}
		if d1 == "" || d1 != d2 {
			t.Errorf("%s: digests %q then %q", wl, d1, d2)
		}
	}
	o := smokeOptions(t, "figures")
	d1, err1 := oneDigest(o, "figures")
	d2, err2 := oneDigest(o, "figures")
	if err1 != nil || err2 != nil || d1 == "" || d1 != d2 {
		t.Errorf("figures: digests %q (%v) then %q (%v)", d1, err1, d2, err2)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", wls, workloads)
	}
	var want, got []metric
	for _, m := range b.EndToEnd {
		want = append(want, metric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		want = append(want, metric{m.Name, m.Unit, m.Better, 0})
	}
	got = append(append(got, endToEnd...), perLayer...)
	if len(want) != len(got) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the harness %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, harness %+v", i, want[i], got[i])
		}
	}
}

// lastLine decodes the result line a run printed last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// lookupMetric finds a metric by name in either table.
func lookupMetric(name string) (metric, bool) {
	for _, tab := range [][]metric{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

func metricNames(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func checkMetrics(t *testing.T, res result, want []metric) {
	t.Helper()
	var got []string
	for name, v := range res.Metrics {
		got = append(got, name)
		if m, ok := lookupMetric(name); !ok || m.Unit != v.Unit {
			t.Errorf("metric %s unit %q, table %+v", name, v.Unit, m)
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(metricNames(want), " ") {
		t.Errorf("emitted metrics\n%v\nwant\n%v", got, metricNames(want))
	}
}

func TestRunEmitsEndToEndMetrics(t *testing.T) {
	t.Parallel()
	for _, wl := range []string{"cell64", "figures"} {
		var out bytes.Buffer
		res, err := run(smokeOptions(t, wl), &out)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if printed := lastLine(t, out.String()); !printed.Correct || printed.Attempted < minIters || printed.Failed != 0 {
			t.Errorf("%s: result %+v\n%s", wl, printed, out.String())
		}
		checkMetrics(t, res, endToEnd)
		for name, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", wl, name, v.Value)
			}
		}
	}
}

// The traced run emits every per-layer metric: the ledger child's, plus
// the figure-level ones derived from per-key timings.
func TestLedgerEmitsPerLayerMetrics(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := runLedger(3, scales["smoke"], &out); err != nil {
		t.Fatal(err)
	}
	var lr ledgerReport
	if err := json.Unmarshal(out.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	for _, c := range lr.Checks {
		// Reconciliation is a timing property; at smoke scale, beside
		// the other tests, it is noise. The traced run checks it.
		if !c.OK && !strings.Contains(c.Name, "reconciles") {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	walls := map[string]float64{}
	for i, k := range figureKeys {
		walls[k] = float64(i + 1)
	}
	fm := fleetMetrics(walls, proc{wall: 4 * time.Second, cpu: 6 * time.Second})
	if fm["fleet.critical_path_s"] != float64(len(figureKeys)) || fm["fleet.idle_frac"] != 0.25 {
		t.Errorf("fleet metrics %v", fm)
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, src := range []map[string]float64{lr.Metrics, fm} {
		for k, v := range src {
			m, _ := lookupMetric(k)
			res.Metrics[k] = metricValue{v, m.Unit}
		}
	}
	checkMetrics(t, res, perLayer)
	if len(lr.Spans) == 0 {
		t.Error("no spans recorded")
	}
	for _, s := range lr.Spans {
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Errorf("bad span %+v", s)
		}
	}
}

func TestGoldenCoversEveryWorkloadAndSeed(t *testing.T) {
	g, err := loadGolden("../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, seed := range goldenSeeds {
			if d := g[wl][strconv.FormatInt(seed, 10)]; len(d) != 64 {
				t.Errorf("golden %s seed %d: %q", wl, seed, d)
			}
		}
	}
}

// Every hard-coded figures key selects an experiment that prints.
func TestFigureKeysPrint(t *testing.T) {
	t.Parallel()
	bin := figuresBinary(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var mu sync.Mutex
	empty := map[string]string{}
	keys := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				var out bytes.Buffer
				_, err := launch(ctx, false, &out, bin, "-quick", "-parallel", "1", "-only", k)
				if err != nil || len(bytes.TrimSpace(out.Bytes())) == 0 {
					mu.Lock()
					empty[k] = out.String() + errString(err)
					mu.Unlock()
				}
			}
		}()
	}
	// fig19 alone takes most of the test's time; start it first.
	keys <- "fig19"
	for _, k := range figureKeys {
		if k != "fig19" {
			keys <- k
		}
	}
	close(keys)
	wg.Wait()
	for k, why := range empty {
		t.Errorf("figures -only %s printed nothing: %s", k, why)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		v    float64
		ok   bool
	}{
		{0, 0, 0, false}, {10, 0, 0, false}, {20, 0, 0, false},
		{21, 52, 11, true}, {60, 83, 50, true}, {100, 90, 90, true},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if p != c.p || v != c.v || ok != c.ok {
			t.Errorf("n=%d: p%d=%v ok=%v, want p%d=%v ok=%v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
		if ok && c.n-int(v) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%d", c.n, c.n-int(v), p)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metric{"wall_s", "s", "lower", 0.10}
	layer := metric{"channel.step_ns", "ns/carrier-slot", "lower", 0}
	around := func(center, spread float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center * (1 + spread*(float64(i%5)-2)/2)
		}
		return xs
	}
	base := around(1, 0.01)
	for _, c := range []struct {
		name string
		m    metric
		b    []float64
		want string
	}{
		{"same", wall, around(1, 0.01), "unchanged"},
		{"faster", wall, around(0.8, 0.01), "improved"},
		{"slower", wall, around(1.2, 0.01), "regressed"},
		{"slightly slower", wall, around(1.05, 0.01), "unchanged"},
		{"noisy", wall, around(1, 0.4), "unresolved"},
		{"layer faster", layer, around(0.8, 0.01), "improved"},
		{"layer slower", layer, around(1.2, 0.01), "worse"},
		{"layer same", layer, around(1, 0.01), "unchanged"},
	} {
		if got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Every change run beating every base run is not unresolved, however
	// wide the spread.
	if got := verdict(wall, around(10, 0.3), around(1, 0.3)); got != "improved" {
		t.Errorf("all better: %s", got)
	}
	if math.IsNaN(median(nil)) {
		t.Error("median(nil) is NaN")
	}
}

func TestPausesOver(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ps := pauses{
		{start: at(0), end: at(10), cal: 40 * time.Millisecond, steal: 1 * time.Millisecond},
		{start: at(500), end: at(520), cal: 60 * time.Millisecond, steal: 2 * time.Millisecond},
		{start: at(1000), end: at(1010), cal: 80 * time.Millisecond, steal: 3 * time.Millisecond},
		{start: at(1500), end: at(1510), cal: 100 * time.Millisecond, steal: 4 * time.Millisecond},
	}
	for _, c := range []struct {
		s, e               int
		active, steal, cal time.Duration
	}{
		// Inside one gap: the pauses on either side.
		{100, 400, 300 * time.Millisecond, 0, 50 * time.Millisecond},
		// Across the second pause: it and its neighbours, less its 20 ms.
		{400, 900, 480 * time.Millisecond, 2 * time.Millisecond, 60 * time.Millisecond},
		// Starting inside a pause counts only the running part.
		{505, 900, 380 * time.Millisecond, 2 * time.Millisecond, 60 * time.Millisecond},
		// After the last pause: only the last one.
		{1600, 1700, 100 * time.Millisecond, 0, 100 * time.Millisecond},
	} {
		active, steal, cal := ps.over(at(c.s), at(c.e))
		if active != c.active || steal != c.steal || cal != c.cal {
			t.Errorf("over(%d, %d) = %v, %v, %v; want %v, %v, %v", c.s, c.e, active, steal, cal, c.active, c.steal, c.cal)
		}
	}
	if got := ps.paused(); got != 50*time.Millisecond {
		t.Errorf("paused = %v", got)
	}
	if got := ps.stolen(); got != 10*time.Millisecond {
		t.Errorf("stolen = %v", got)
	}
	if _, ok := ps.rssP90(); ok {
		t.Error("rssP90 reported a value without samples")
	}
	var sampled pauses
	for i := 10; i >= 0; i-- { // 10..1 MiB, then one unsampled stop
		sampled = append(sampled, pause{rssKB: int64(i) * 1024})
	}
	if got, ok := sampled.rssP90(); !ok || got != 9 {
		t.Errorf("rssP90 = %v, %v; want 9 MiB", got, ok)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for i := 0; i < 10; i++ {
		o := options{workload: "campaign", seed: int64(i)}
		v := 1 + float64(i%3)/100
		for path, scale := range map[string]float64{a: 1, b: 1.5} {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {v * scale, "s"}}}
			if err := appendRecord(path, o, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil || regressed != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regressed=%d err=%v\n%s", regressed, err, out.String())
	}
}
