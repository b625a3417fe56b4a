// Package experiments implements one reproduction per table and figure of
// the paper's evaluation. Each experiment builds its workload from the
// operator registry, runs the simulator through the same measurement
// pipeline the campaign uses (iperf sessions → slot KPI series → analysis),
// and returns the rows/series the paper plots. cmd/figures prints them and
// bench_test.go regenerates them under `go test -bench`.
package experiments

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/lte"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

// Options scale an experiment.
type Options struct {
	// Seed drives all randomness (default 2024).
	Seed int64
	// Quick shortens sessions for benchmarks and CI; full runs use the
	// durations the figures need for stable statistics.
	Quick bool
	// Faults, when non-nil, threads a deterministic fault-injection
	// schedule into the campaign-based experiments (Table1). Nil — the
	// default — keeps every figure byte-identical to the fault-free
	// artifacts.
	Faults *fault.Schedule
}

// Plan splits an experiment into independent arms and a reducer that
// assembles the result from the arm values in arm order. Every arm
// derives its randomness from the Options seed and its arm index and
// builds its own link or session, never sharing mutable simulator state,
// so the arms may run in any order on any number of workers (cmd/figures
// runs the arms of every selected figure on one fleet) and the reduced
// result is identical. An arm returns a row-sized value, never a whole
// session result, so a finished arm holds no per-slot series while it
// waits for the reducer.
type Plan[A, R any] struct {
	Arms   int
	Arm    func(i int) (A, error)
	Reduce func(arms []A) (R, error)
}

// Run executes the arms serially, in arm order, and reduces them.
func (p Plan[A, R]) Run() (R, error) {
	arms := make([]A, p.Arms)
	for i := range arms {
		a, err := p.Arm(i)
		if err != nil {
			var zero R
			return zero, err
		}
		arms[i] = a
	}
	return p.Reduce(arms)
}

// Single is the one-arm plan of an experiment that does not split.
func Single[R any](o Options, run func(Options) (R, error)) Plan[R, R] {
	return Plan[R, R]{
		Arms:   1,
		Arm:    func(int) (R, error) { return run(o) },
		Reduce: func(arms []R) (R, error) { return arms[0], nil },
	}
}

// rowPlan is a plan whose arms are already the result rows.
func rowPlan[A any](arms int, arm func(i int) (A, error)) Plan[A, []A] {
	return Plan[A, []A]{
		Arms:   arms,
		Arm:    arm,
		Reduce: func(rows []A) ([]A, error) { return rows, nil },
	}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 2024
	}
	return o.Seed
}

// sessionSeconds returns the iperf session length.
func (o Options) sessionSeconds(full float64) time.Duration {
	if o.Quick {
		full = full / 5
		if full < 1.5 {
			full = 1.5
		}
	}
	return time.Duration(full * float64(time.Second))
}

// measure runs a stationary session for an operator and returns its
// averages with the per-slot series.
func measure(acr string, d time.Duration, demand net5g.Demand, seed int64) (*iperf.Result, *iperf.Series, error) {
	op, err := operators.ByAcronym(acr)
	if err != nil {
		return nil, nil, err
	}
	return measureOp(op, operators.Stationary(seed), d, demand)
}

// measureOp is measure for any operator profile and scenario.
func measureOp(op operators.Operator, sc operators.Scenario, d time.Duration, demand net5g.Demand) (*iperf.Result, *iperf.Series, error) {
	sess, err := core.NewSession(op, sc)
	if err != nil {
		return nil, nil, err
	}
	series := iperf.NewSeries(sess.Link, d)
	res, err := sess.RunIperf(d, demand, nil, series)
	return res, series, err
}

// measureAverages is measureOp for callers that read only the session
// averages: it records no series.
func measureAverages(op operators.Operator, sc operators.Scenario, d time.Duration, demand net5g.Demand) (*iperf.Result, error) {
	sess, err := core.NewSession(op, sc)
	if err != nil {
		return nil, err
	}
	return sess.RunIperf(d, demand, nil)
}

// ulOnlyNR measures the NR uplink by forcing the NR-only routing policy, as
// the paper's per-channel UL boxes require. A negative biasDB moves the UE
// toward the cell edge.
func ulOnlyNR(acr string, d time.Duration, seed int64, biasDB float64) (*iperf.Series, error) {
	link, err := newLink(acr, operators.Stationary(seed), func(c *net5g.LinkConfig) {
		c.ULPolicy = lte.ULNROnly
		c.Carriers[0].Channel.SINRBiasDB += biasDB
	})
	if err != nil {
		return nil, err
	}
	series := iperf.NewSeries(link, d)
	if _, err := warmRun(link, d, series); err != nil {
		return nil, err
	}
	return series, nil
}

// newLink builds the link of operator acr for scenario sc; edit, when
// non-nil, adjusts its config first.
func newLink(acr string, sc operators.Scenario, edit func(*net5g.LinkConfig)) (*net5g.Link, error) {
	op, err := operators.ByAcronym(acr)
	if err != nil {
		return nil, err
	}
	cfg, err := op.LinkConfig(sc)
	if err != nil {
		return nil, err
	}
	if edit != nil {
		edit(&cfg)
	}
	return net5g.NewLink(cfg)
}

// warmRun runs a 1 s warm-up session on a fresh link, then a saturating
// measurement of duration d with the given observers.
func warmRun(link *net5g.Link, d time.Duration, obs ...iperf.Observer) (*iperf.Result, error) {
	if _, err := iperf.Run(link, iperf.Config{Duration: time.Second}); err != nil {
		return nil, err
	}
	return iperf.Run(link, iperf.Config{Duration: d, Demand: net5g.Saturate, Observers: obs})
}

// measureAvgDL averages the DL throughput over several independent
// sessions, as the paper's multi-day campaign does — single short windows
// are dominated by congestion-episode luck.
func measureAvgDL(acr string, d time.Duration, reps int, seed int64) (float64, error) {
	op, err := operators.ByAcronym(acr)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for r := 0; r < reps; r++ {
		res, err := measureAverages(op, operators.Stationary(seed+int64(r)*7919), d, net5g.Demand{DL: true})
		if err != nil {
			return 0, err
		}
		total += res.DLMbps
	}
	return total / float64(reps), nil
}

// OperatorValue is a generic (operator, value) row.
type OperatorValue struct {
	Operator string
	Label    string
	Value    float64
}

func (v OperatorValue) String() string {
	return fmt.Sprintf("%-8s %-12s %8.1f", v.Operator, v.Label, v.Value)
}
