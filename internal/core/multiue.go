package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/operators"
)

// This file is the campaign arm for multi-UE cell contention: each
// operator's primary carrier is run as one shared cell with N contending
// UEs under gnb.CellModelContention. One fleet job per operator; every
// random stream derives from fleet.SplitSeed sub-domains keyed by the
// operator acronym and UE index alone, so reports are byte-identical for
// any worker count.

// MultiUEConfig parameterizes a multi-UE contention run.
type MultiUEConfig struct {
	// Operators to run (default: the full mid-band registry).
	Operators []operators.Operator
	// UEsPerCell is the attached-UE population per cell (default 4).
	UEsPerCell int
	// Policy is the shared-cell scheduler (zero value: equal share).
	Policy gnb.SchedulerPolicy
	// Duration is the simulated time per cell.
	Duration time.Duration
	// Seed drives everything; see the sub-domain layout in
	// docs/ARCHITECTURE.md ("Multi-UE cell model").
	Seed int64
	// Workers bounds the parallel fan-out (<=0: GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives fleet counters.
	Metrics *fleet.Metrics
}

// UEShare is one UE's outcome in a shared cell.
type UEShare struct {
	// UE is the index into the cell's UE set.
	UE int
	// Mbps is the UE's delivered goodput.
	Mbps float64
	// Share is the UE's fraction of the cell's delivered bits.
	Share float64
	// ScheduledSlots counts slots in which the UE received a grant.
	ScheduledSlots int64
}

// MultiUEReport is one operator's shared-cell outcome.
type MultiUEReport struct {
	Operator string
	Policy   string
	UEs      int
	// CellMbps is the cell's aggregate delivered goodput.
	CellMbps float64
	// JainIndex is Jain's fairness index over the per-UE goodputs
	// (1 = perfectly fair, 1/N = one UE takes everything).
	JainIndex float64
	// LoadEMA is the cell's final smoothed RB utilization — the
	// neighbor activity factor the load coupling converged to.
	LoadEMA float64
	PerUE   []UEShare
}

// UEPositions derives n deterministic UE positions around the serving
// site: each UE's polar coordinates come from its own SplitSeed
// sub-domain, so UE i's position is independent of n (growing the
// population never moves existing UEs).
func UEPositions(seed int64, n int) []channel.Point {
	pts := make([]channel.Point, n)
	for i := range pts {
		rng := fleet.SplitSeed(seed, "core/multiue/pos", i)
		// Two splitmix-style draws via SplitSeed sub-indices keep this
		// free of math/rand state.
		a := float64(uint64(fleet.SplitSeed(rng, "angle", 0))%360000) / 360000 * 2 * math.Pi
		d := 30 + float64(uint64(fleet.SplitSeed(rng, "dist", 0))%120000)/1000
		pts[i] = channel.Point{X: d * math.Cos(a), Y: d * math.Sin(a)}
	}
	return pts
}

// RunMultiUE runs the multi-UE contention arm serially or in parallel;
// see RunMultiUEContext.
func RunMultiUE(cfg MultiUEConfig) ([]MultiUEReport, error) {
	return RunMultiUEContext(context.Background(), cfg)
}

// RunMultiUEContext fans one shared-cell job per operator over the fleet
// and returns reports in registry order — byte-identical for any
// Workers value.
func RunMultiUEContext(ctx context.Context, cfg MultiUEConfig) ([]MultiUEReport, error) {
	ops := cfg.Operators
	if len(ops) == 0 {
		ops = operators.MidBand()
	}
	if cfg.UEsPerCell <= 0 {
		cfg.UEsPerCell = 4
	}
	if cfg.Duration == 0 {
		cfg.Duration = 5 * time.Second
	}
	n := cfg.UEsPerCell
	jobs := make([]fleet.Job[MultiUEReport], 0, len(ops))
	for _, op := range ops {
		op := op
		jobs = append(jobs, fleet.Job[MultiUEReport]{
			Key: op.Acronym,
			Run: func(_ context.Context) (MultiUEReport, error) {
				seed := fleet.SplitSeed(cfg.Seed, "core/multiue/"+op.Acronym, 0)
				cc, err := op.CarrierConfig(0, operators.Stationary(seed))
				if err != nil {
					return MultiUEReport{}, fmt.Errorf("core: %s: %w", op.Acronym, err)
				}
				cell, err := gnb.NewCell(gnb.CellConfig{
					Carrier: cc,
					UEs:     UEPositions(seed, n),
					Policy:  cfg.Policy,
					Model:   gnb.CellModelContention,
					Seed:    seed,
				})
				if err != nil {
					return MultiUEReport{}, fmt.Errorf("core: %s: %w", op.Acronym, err)
				}
				steps := int(cfg.Duration / cell.SlotDuration())
				if steps < 1 { // rates would be 0/0 (or per negative second)
					return MultiUEReport{}, fmt.Errorf("core: %s: multi-UE duration %v covers no whole %v slot",
						op.Acronym, cfg.Duration, cell.SlotDuration())
				}
				bits := make([]float64, n)
				slots := make([]int64, n)
				for s := 0; s < steps; s++ {
					allocs := cell.Step().Allocs
					for i := range allocs {
						a := &allocs[i]
						bits[a.UE] += float64(a.Alloc.DeliveredBits)
						slots[a.UE]++
					}
				}
				if cfg.Metrics != nil {
					cfg.Metrics.SlotsSimulated.Add(int64(steps))
				}
				secs := float64(steps) * cell.SlotDuration().Seconds()
				rep := MultiUEReport{
					Operator: op.Acronym,
					Policy:   cfg.Policy.String(),
					UEs:      n,
					LoadEMA:  cell.LoadEMA(),
				}
				var total, sumsq float64
				for _, b := range bits {
					total += b
					sumsq += b * b
				}
				rep.CellMbps = total / secs / 1e6
				if sumsq > 0 {
					rep.JainIndex = total * total / (float64(n) * sumsq)
				} else {
					rep.JainIndex = 1 // nothing delivered: vacuously fair
				}
				for i := 0; i < n; i++ {
					share := 0.0
					if total > 0 {
						share = bits[i] / total
					}
					rep.PerUE = append(rep.PerUE, UEShare{
						UE: i, Mbps: bits[i] / secs / 1e6, Share: share,
						ScheduledSlots: slots[i],
					})
					if obs.Enabled() {
						obs.Sim.UEGoodputShare.Observe(share)
					}
				}
				return rep, nil
			},
		})
	}
	results, err := fleet.Run(ctx, jobs, fleet.Options{
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	out := make([]MultiUEReport, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}
