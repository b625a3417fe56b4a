// Command midbench is the repository's end-to-end benchmark. It times
// whole user-facing runs of the simulator — a Table 1 campaign with its
// trace read-back, a 64-UE shared-cell run, the five scenario packs, and
// a Quick-scale figure regeneration — from outside, in child processes
// pinned to two cores, and checks every output against committed
// digests. A separate traced run replays the same inputs layer by layer
// and prints the per-layer ledger.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	midbench -workload campaign|cell64|qoe|figures [-seed 2024] [-seconds 15] [-trace 0|1] [-record FILE]
//	midbench -compare A.jsonl B.jsonl
//	midbench -update-golden
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads, the metrics and how a performance claim is checked.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("midbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "campaign", "workload: campaign, cell64, qoe or figures")
	fs.Int64Var(&o.seed, "seed", 2024, "input seed (7 is held out for checking claims)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time of the closed loop")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	record := fs.String("record", "", "also append the result, with workload and seed, as a JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -record files: midbench -compare A B")
	updateGolden := fs.Bool("update-golden", false, "recompute the golden digests for seeds 2024 and 7 and rewrite "+goldenPath)
	fs.StringVar(&o.scale, "scale", "full", "input scale: full, or smoke for tests")
	child := fs.String("child", "", "run one in-process workload, or the ledger, and report to the parent")
	setupOnly := fs.Bool("setup-only", false, "with -child: exit once the inputs are built")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "midbench: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	}
	o.trace = *traceFlag == 1
	sc, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(stderr, "midbench: unknown -scale %q\n", o.scale)
		return 2
	}
	var err error
	switch {
	case *child == "ledger":
		err = runLedger(o.seed, sc, stdout)
	case *child != "":
		err = runChild(*child, o.seed, o.seconds, sc, *setupOnly, stdout)
	case *compare:
		if fs.NArg() != 2 {
			err = errors.New("usage: midbench -compare A.jsonl B.jsonl")
			break
		}
		var regressed int
		regressed, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err == nil && regressed > 0 {
			err = fmt.Errorf("%d row(s) regressed", regressed)
		}
	default:
		err = o.resolveBinaries()
		if err != nil {
			break
		}
		if *updateGolden {
			err = writeGolden(o)
			break
		}
		if !slices.Contains(workloads, o.workload) {
			err = fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloads)
			break
		}
		var res result
		res, err = run(o, stdout)
		if err == nil && *record != "" {
			err = appendRecord(*record, o, res)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "midbench: %v\n", err)
		return 1
	}
	return 0
}

// resolveBinaries finds this executable (rerun as the child) and the
// figures and noop binaries built next to it.
func (o *options) resolveBinaries() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o.exe = exe
	o.figures = filepath.Join(filepath.Dir(exe), "figures")
	o.noop = filepath.Join(filepath.Dir(exe), "noop")
	return nil
}

// writeGolden runs one full-scale iteration of every workload at each
// golden seed and rewrites the golden digest file.
func writeGolden(o options) error {
	if o.scale != "full" {
		return errors.New("-update-golden needs -scale full")
	}
	g := goldenFile{}
	for _, wl := range workloads {
		g[wl] = map[string]string{}
		for _, seed := range goldenSeeds {
			o.seed = seed
			d, err := oneDigest(o, wl)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			g[wl][strconv.FormatInt(seed, 10)] = d
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// oneDigest runs a single iteration of a workload and returns its digest.
func oneDigest(o options, wl string) (string, error) {
	if wl == "figures" {
		h := newHash()
		if _, err := launch(context.Background(), false, h, o.figures, o.figuresArgs("2")...); err != nil {
			return "", err
		}
		return h.hex(), nil
	}
	w, err := setupWorkload(wl, o.seed, scales[o.scale])
	if err != nil {
		return "", err
	}
	defer w.cleanup()
	return w.run()
}
