package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// record is one run as -record appends it: the result line plus what
// the run measured.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func appendRecord(path string, o options, res result) error {
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict classifies change runs b against base runs a for a metric.
// b improved when it wins at least nine tenths of the pairs (runs paired
// in order, ties counting for neither) and the medians differ by more
// than a's interquartile spread. Otherwise a spread wider than the bound
// on either side leaves the row unresolved, unless every run of b reads
// better than every run of a; then b regressed when its median is worse
// than a's by more than the bound, and is unchanged if not. A layer
// metric has no bound: the claim rule decides in both directions, and
// "worse" replaces regressed.
func verdict(m metric, a, b []float64) string {
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	// claim reports whether x beats y by the claim rule.
	claim := func(x, y []float64) bool {
		pairs, wins := min(len(x), len(y)), 0
		for i := 0; i < pairs; i++ {
			if better(x[i], y[i]) {
				wins++
			}
		}
		q1, q3 := quartiles(y)
		mx, my := median(x), median(y)
		return pairs > 0 && 10*wins >= 9*pairs && better(mx, my) && math.Abs(mx-my) > q3-q1
	}
	switch {
	case claim(b, a):
		return "improved"
	case m.Bound == 0 && claim(a, b):
		return "worse"
	case m.Bound == 0:
		return "unchanged"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	if !allBetter && (spread(a) > m.Bound || spread(b) > m.Bound) {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "unchanged"
}

// compareFiles prints one row per (workload, metric) present in both
// record files, end-to-end metrics first, and reports how many rows
// regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed int, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	values := func(recs []record, wl, name string) []float64 {
		var vs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[name]; ok && r.Workload == wl {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-9s %-30s %12s %23s %12s %23s  %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "verdict")
	for _, wl := range workloads {
		for _, tab := range [][]metric{endToEnd, perLayer} {
			for _, m := range tab {
				va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v := verdict(m, va, vb)
				if v == "regressed" {
					regressed++
				}
				qa1, qa3 := quartiles(va)
				qb1, qb3 := quartiles(vb)
				fmt.Fprintf(w, "%-9s %-30s %12.6g %11.5g..%-11.5g %12.6g %11.5g..%-11.5g  %s (n=%d/%d)\n",
					wl, m.Name, median(va), qa1, qa3, median(vb), qb1, qb3, v, len(va), len(vb))
			}
		}
	}
	return regressed, nil
}
