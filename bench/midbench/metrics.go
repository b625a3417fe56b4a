package main

import "strings"

// metric is one reported number: its name, unit, which direction is
// better and, for end-to-end metrics, the regression bound as a share of
// the baseline median. The two tables below mirror BENCHMARK.json at the
// repository root; TestMetricTablesMatchBenchmarkJSON keeps them equal.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are measured with tracing off, per workload. The bounds are
// sized to what the shared reference host reproduces (see README.md):
// within one set of ten seeds the time spreads stay near 5%, but the
// host's slow hours have moved the figures times by up to 13%. setup_s,
// a median of millisecond launches, keeps the largest bound.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.20},
	{"cpu_s", "s", "lower", 0.20},
	{"rss_p90_mb", "MB", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
}

// figureKeys are the cmd/figures -only keys, in the order the command
// renders them. Each becomes one experiments.<key>_s layer metric.
var figureKeys = []string{
	"table1", "tables23", "sec32",
	"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
	"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18", "fig19", "fig23", "fig24", "sec7",
	"exta", "extb", "extc", "extd", "exte", "extf",
}

// perLayer is the traced run's ledger. README.md maps each entry to the
// end-to-end metric and workload it should move.
var perLayer = func() []metric {
	ms := []metric{
		{"channel.step_ns", "ns/carrier-slot", "lower", 0},
		{"gnb.carrier_step_ns", "ns/carrier-slot", "lower", 0},
		{"net5g.link_step_ns", "ns/step", "lower", 0},
		{"iperf.step_ns", "ns/step", "lower", 0},
		{"iperf.alloc_b_per_step", "B/step", "lower", 0},
		{"core.capture_ns", "ns/step", "lower", 0},
		{"core.session_setup_us", "us", "lower", 0},
		{"core.warmup_ms", "ms", "lower", 0},
		{"net5g.latency_probe_ns", "ns/probe", "lower", 0},
		{"xcol.write_ns_per_rec", "ns/rec", "lower", 0},
		{"xcol.close_ms", "ms", "lower", 0},
		{"xcol.bytes_per_rec", "B/rec", "lower", 0},
		{"xcol.scan_ns_per_rec", "ns/rec", "lower", 0},
		{"analysis.summarize_ns_per_rec", "ns/rec", "lower", 0},
		{"trace.overhead_frac", "frac", "lower", 0},
		{"runtime.alloc_mb", "MB", "lower", 0},
		{"runtime.gc_cpu_frac", "frac", "lower", 0},
		{"runtime.cpu_ns_per_slot", "ns/slot", "lower", 0},
		{"gnb.cell_setup_ms", "ms", "lower", 0},
		{"gnb.cellbatch_ns_per_ue_slot", "ns/UE-slot", "lower", 0},
		{"channel.batch_fast_lane_frac", "frac", "higher", 0},
		{"scenario.spec_us", "us", "lower", 0},
	}
	for _, p := range qoePacks {
		ms = append(ms, metric{"scenario.run_ms." + p, "ms", "lower", 0})
	}
	ms = append(ms,
		metric{"video.play_ms", "ms", "lower", 0},
		metric{"video.self_ns_per_step", "ns/step", "lower", 0},
	)
	for _, k := range figureKeys {
		ms = append(ms, metric{"experiments." + k + "_s", "s", "lower", 0})
	}
	return append(ms,
		metric{"fleet.critical_path_s", "s", "lower", 0},
		metric{"fleet.idle_frac", "frac", "lower", 0},
	)
}()

// isTime reports whether a unit is a time (per something), which the
// host calibration scales.
func isTime(unit string) bool {
	u, _, _ := strings.Cut(unit, "/")
	return u == "s" || u == "ms" || u == "us" || u == "ns"
}
