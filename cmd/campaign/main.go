// Command campaign runs a measurement campaign across the operator registry
// and writes one trace per operator, reproducing the data collection
// methodology of §2. Traces are written in the columnar .xcol container
// (streamable with bounded memory; see docs/ARCHITECTURE.md "Trace
// pipeline"); `xcaldump -convert` turns one into a row .xcal when a
// row-format consumer needs it. Sessions fan out over the fleet worker
// pool; -parallel bounds the workers and the results are identical for
// any value because every session seed derives from the job key alone.
//
// Observability: -obs-listen serves live /metrics (Prometheus text),
// /debug/pprof and /debug/vars while the campaign runs; -progress prints
// periodic slots/sec + ETA snapshots to stderr. Every run writes a
// RunManifest (manifest.json) next to the traces recording the config
// digest, seed, toolchain and run accounting, so any trace can be traced
// back to the exact run that produced it. None of this feeds back into
// the simulation: aggregates and traces are byte-identical with
// observability on or off.
//
// Fault injection: -faults arms a deterministic fault schedule
// (radio-link failures, SINR blackouts, trace I/O errors, session aborts,
// worker panics — see internal/fault). The campaign then degrades
// gracefully: transient failures retry with simulated backoff and
// sessions that still fail are recorded as failure provenance in the
// manifest instead of failing the run. Without -faults the campaign is
// byte-identical to one built before fault injection existed.
//
// Usage:
//
//	campaign [-out DIR] [-duration 10s] [-seed N] [-ops V_Sp,Tmb_US]
//	         [-parallel N] [-obs-listen :9090] [-progress 2s]
//	         [-faults rlf=2e-4,abort=0.05,trace=1e-3,seed=7]
//	         [-ues-per-cell 4] [-cell-policy pf] [-quick]
//	campaign -scenario <pack|file> [-quick] [-out DIR] [-seed N] [-parallel N]
//
// Multi-UE contention: -ues-per-cell N (N > 1) appends a shared-cell arm
// after the per-session measurements — each operator's primary carrier
// runs as one cell with N contending UEs under -cell-policy (pf, rr, mt
// or eq), reporting per-UE goodput shares and Jain fairness.
//
// One run path: every run executes a declarative scenario spec
// (internal/scenario). -scenario names a shipped pack (see `scenario
// list`) or a spec file path. Without it, the workload-shaping flags
// -ops, -duration, -faults, -ues-per-cell and -cell-policy compile into
// a bulk spec named "campaign" with 3 sessions per operator — the §2
// Table 1 campaign — so a spec that fails validation (a duplicate
// operator, a non-positive duration) fails the run before anything is
// simulated. Those flags are rejected alongside -scenario, whose spec
// owns the workload; run-level flags (-seed, -parallel, -out,
// -obs-listen, -progress, profiles) compose with either. -quick shrinks
// the spec to CI scale first. The manifest records the scenario name
// and canonical digest, and the report is the scenario's KPI table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/report"
	"github.com/midband5g/midband/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	out := flag.String("out", "traces", "directory for traces and manifest.json")
	duration := flag.Duration("duration", 10*time.Second, "bulk-transfer duration per session")
	seed := flag.Int64("seed", 2024, "simulation seed")
	ops := flag.String("ops", "", "comma-separated operator acronyms (default: all mid-band)")
	parallel := flag.Int("parallel", 0, "concurrent sessions (default: GOMAXPROCS; 1 = serial)")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /debug/pprof and /debug/vars on this address during the run (\":0\" picks a port)")
	progress := flag.Duration("progress", 0, "interval between stderr progress snapshots (0 disables)")
	faults := flag.String("faults", "", "fault-injection spec, e.g. rlf=2e-4,blackout=1e-4,trace=1e-3,abort=0.05,panic=0.02,attempts=3,seed=7 (empty disables)")
	uesPerCell := flag.Int("ues-per-cell", 1, "attached UEs contending per cell; >1 appends a multi-UE contention arm (see docs/SIMULATION-MODEL.md)")
	cellPolicy := flag.String("cell-policy", "pf", "multi-UE scheduler: pf, rr, mt or eq (used with -ues-per-cell > 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	scenarioArg := flag.String("scenario", "", "run a declarative scenario: a shipped pack name or a spec file path (conflicts with the workload-shaping flags; see doc)")
	quick := flag.Bool("quick", false, "shrink the spec (the -scenario or the flag-built campaign) to CI scale (sessions, durations, probes) before running")
	flag.Parse()
	var spec *scenario.Spec
	var err error
	if *scenarioArg != "" {
		if conflicts := conflictingFlags(flag.Visit); len(conflicts) > 0 {
			log.Fatalf("-scenario provides the workload; the spec's traffic/band_plan/population/faults/sessions sections own %s — drop the flag(s) or edit the spec",
				strings.Join(conflicts, ", "))
		}
		spec, err = scenario.Load(*scenarioArg)
	} else {
		spec, err = flagSpec(*ops, *duration, *faults, *uesPerCell, *cellPolicy)
	}
	if err != nil {
		log.Fatal(err)
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var m fleet.Metrics
	t0 := time.Now() //detlint:allow walltime CLI wall-cost accounting for the manifest, never simulation input
	if *obsListen != "" || *progress > 0 {
		obs.SetEnabled(true)
	}
	if *obsListen != "" {
		reg := obs.Default()
		reg.GaugeFunc("fleet_jobs_done", func() float64 { return float64(m.JobsDone.Load()) })
		reg.GaugeFunc("fleet_jobs_total", func() float64 { return float64(m.JobsTotal.Load()) })
		reg.GaugeFunc("fleet_slots_simulated", func() float64 { return float64(m.SlotsSimulated.Load()) })
		reg.GaugeFunc("fleet_trace_bytes", func() float64 { return float64(m.TraceBytes.Load()) })
		reg.GaugeFunc("run_elapsed_seconds", func() float64 { return time.Since(t0).Seconds() }) //detlint:allow walltime live /metrics gauge, observability only
		srv, err := obs.Serve(*obsListen, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: obs endpoint on http://%s (/metrics /debug/pprof /debug/vars)\n", srv.Addr())
	}
	if *progress > 0 {
		stop := obs.StartProgress(obs.ProgressConfig{
			W:        os.Stderr,
			Interval: *progress,
			Prefix:   "campaign",
			Done:     m.JobsDone.Load,
			Total:    m.JobsTotal.Load,
			Slots:    m.SlotsSimulated.Load,
		})
		defer stop()
	}

	runScenario(spec, *quick, *out, *seed, *parallel, &m, t0)
}

// scenarioConflictFlags are the workload-shaping flags a -scenario spec
// owns: each has a spec section that replaces it, so setting both is a
// contradiction, not an override.
var scenarioConflictFlags = []string{"ops", "duration", "faults", "ues-per-cell", "cell-policy"}

// conflictingFlags returns the workload-shaping flags the user set, in
// scenarioConflictFlags order, given a flag.Visit-style iterator over
// the flags explicitly present on the command line.
func conflictingFlags(visit func(func(*flag.Flag))) []string {
	set := map[string]bool{}
	visit(func(f *flag.Flag) { set[f.Name] = true })
	var out []string
	for _, name := range scenarioConflictFlags {
		if set[name] {
			out = append(out, "-"+name)
		}
	}
	return out
}

// flagSpec compiles the workload-shaping flags into the bulk campaign
// spec they describe: the named operators (trimmed; empty means the
// mid-band registry), 3 sessions of duration each, the fault spec
// verbatim, and the contention arm when uesPerCell > 1. cellPolicy is
// parsed even when unused so a typo never passes silently.
func flagSpec(ops string, duration time.Duration, faults string, uesPerCell int, cellPolicy string) (*scenario.Spec, error) {
	policy, err := gnb.ParsePolicy(cellPolicy)
	if err != nil {
		return nil, err
	}
	s := &scenario.Spec{
		Schema:   scenario.SchemaVersion,
		Name:     "campaign",
		Traffic:  scenario.Traffic{App: scenario.AppBulk},
		Faults:   faults,
		Sessions: scenario.Sessions{Count: 3, DurationSec: duration.Seconds()},
	}
	if ops != "" {
		for _, acr := range strings.Split(ops, ",") {
			s.BandPlan.Operators = append(s.BandPlan.Operators, strings.TrimSpace(acr))
		}
	}
	if uesPerCell > 1 {
		s.Population = scenario.Population{UEsPerCell: uesPerCell, CellPolicy: policy.String()}
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// scenarioManifestConfig is the digested configuration of a -scenario
// run: the canonical spec plus the run-level inputs that shape outputs.
type scenarioManifestConfig struct {
	Scenario json.RawMessage `json:"scenario"`
	Seed     int64           `json:"seed"`
	Quick    bool            `json:"quick,omitempty"`
}

// runScenario runs a spec, writes the manifest (stamped with the
// scenario name and digest) and prints the scenario report.
func runScenario(spec *scenario.Spec, quick bool, out string, seed int64, parallel int, m *fleet.Metrics, t0 time.Time) {
	if quick {
		spec = spec.QuickScale()
	}
	canonical, err := spec.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	manifest, err := obs.NewManifest("campaign", scenarioManifestConfig{
		Scenario: canonical,
		Seed:     seed,
		Quick:    quick,
	})
	if err != nil {
		log.Fatal(err)
	}
	manifest.Seed = seed
	manifest.Workers = fleet.EffectiveWorkers(parallel)
	if err := spec.StampManifest(manifest); err != nil {
		log.Fatal(err)
	}

	res, err := scenario.Run(context.Background(), spec, scenario.Options{
		Seed:     seed,
		Workers:  parallel,
		Metrics:  m,
		TraceDir: out,
		Progress: func(done, total int, key string) {
			fmt.Fprintf(os.Stderr, "campaign: [%d/%d] %s (%.1fs)\n", done, total, key, time.Since(t0).Seconds()) //detlint:allow walltime stderr progress line, not part of campaign output
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0).Seconds() //detlint:allow walltime manifest wall-cost field, excluded from the config digest

	manifest.WallSeconds = elapsed
	manifest.JobsDone = m.JobsDone.Load()
	manifest.SlotsSimulated = m.SlotsSimulated.Load()
	manifest.TraceBytes = m.TraceBytes.Load()
	manifest.Retries = m.Retries.Load()
	manifest.BackoffSimNs = int64(res.BackoffSim)
	manifest.Failures = res.Failures
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "campaign: session %s failed after %d attempt(s): %s (%s)\n",
			f.Key, f.Attempts, f.Stage, f.Err)
	}
	if res.Bulk != nil {
		for _, s := range res.Bulk.Sessions {
			if s.TracePath != "" {
				manifest.Outputs = append(manifest.Outputs, filepath.Base(s.TracePath))
			}
		}
	}
	manifestPath := filepath.Join(out, "manifest.json")
	if err := obs.WriteManifest(manifestPath, manifest); err != nil {
		log.Fatal(err)
	}

	slots := float64(m.SlotsSimulated.Load())
	fmt.Fprintf(os.Stderr, "campaign: scenario %s (%d jobs, %.2fM slots, %.1fs wall)\n",
		res.Name, m.JobsDone.Load(), slots/1e6, elapsed)
	report.Scenario(os.Stdout, res)
	fmt.Printf("\n%d traces written to %s (manifest: %s)\n", len(manifest.Outputs), out, manifestPath)
}
