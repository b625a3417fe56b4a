package core

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/gnb"
)

// The fleet contract extends to the multi-UE arm: reports must be
// byte-identical no matter how many workers ran them, because every cell
// seed splits from the base seed by the operator acronym alone.
func TestRunMultiUEParallelDeterminism(t *testing.T) {
	run := func(workers int) []MultiUEReport {
		reports, err := RunMultiUE(MultiUEConfig{
			Operators:  campaignOps(t, "V_Sp", "Tmb_US", "V_It"),
			UEsPerCell: 4,
			Policy:     gnb.SchedulerProportionalFair,
			Duration:   500 * time.Millisecond,
			Seed:       42,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("multi-UE reports diverge between workers=1 and workers=8:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// A duration that covers no slot used to report NaN rates (0 bits over
// 0 seconds), and a negative one negative seconds; both are errors.
func TestRunMultiUERejectsSubSlotDuration(t *testing.T) {
	for _, d := range []time.Duration{100 * time.Microsecond, -time.Second} {
		_, err := RunMultiUE(MultiUEConfig{
			Operators:  campaignOps(t, "V_Sp"),
			UEsPerCell: 4,
			Policy:     gnb.SchedulerProportionalFair,
			Duration:   d,
			Seed:       42,
		})
		if err == nil {
			t.Errorf("duration %v: RunMultiUE succeeded, want an error", d)
		}
	}
	reports, err := RunMultiUE(MultiUEConfig{
		Operators:  campaignOps(t, "V_Sp"),
		UEsPerCell: 4,
		Policy:     gnb.SchedulerProportionalFair,
		Duration:   500 * time.Microsecond,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("one 500µs slot: %v", err)
	}
	if r := reports[0]; math.IsNaN(r.CellMbps) || math.IsNaN(r.PerUE[0].Mbps) {
		t.Errorf("one 500µs slot reports NaN rates: %+v", r)
	}
}

// -ues-per-cell 1 must be indistinguishable from a campaign built before
// the multi-UE arm existed: same stats, same traces.
func TestCampaignUEsPerCellOneIsLegacy(t *testing.T) {
	run := func(uesPerCell int) *CampaignStats {
		stats, err := RunCampaign(CampaignConfig{
			Operators:       campaignOps(t, "V_Sp", "V_It"),
			SessionDuration: 500 * time.Millisecond,
			TraceDir:        t.TempDir(),
			Seed:            42,
			UEsPerCell:      uesPerCell,
			CellPolicy:      gnb.SchedulerProportionalFair,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range stats.Sessions {
			stats.Sessions[i].TracePath = filepath.Base(stats.Sessions[i].TracePath)
		}
		return stats
	}
	legacy, one := run(0), run(1)
	if len(one.MultiUE) != 0 {
		t.Errorf("-ues-per-cell 1 grew a multi-UE arm: %+v", one.MultiUE)
	}
	if !reflect.DeepEqual(legacy, one) {
		t.Errorf("UEsPerCell=1 diverges from the legacy campaign:\nlegacy: %+v\none:    %+v", legacy, one)
	}
}

func TestCampaignMultiUEArm(t *testing.T) {
	ops := campaignOps(t, "V_Sp", "Tmb_US")
	stats, err := RunCampaign(CampaignConfig{
		Operators:       ops,
		SessionDuration: 500 * time.Millisecond,
		TraceDir:        t.TempDir(),
		Seed:            42,
		UEsPerCell:      4,
		CellPolicy:      gnb.SchedulerProportionalFair,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.MultiUE) != len(ops) {
		t.Fatalf("got %d multi-UE reports, want %d", len(stats.MultiUE), len(ops))
	}
	for _, rep := range stats.MultiUE {
		if rep.UEs != 4 || len(rep.PerUE) != 4 {
			t.Fatalf("%s: %d UEs (%d shares), want 4", rep.Operator, rep.UEs, len(rep.PerUE))
		}
		if rep.CellMbps <= 0 {
			t.Errorf("%s: cell goodput %.1f Mbps, want > 0", rep.Operator, rep.CellMbps)
		}
		if rep.JainIndex < 0.25 || rep.JainIndex > 1 {
			t.Errorf("%s: Jain index %.3f outside [1/N, 1]", rep.Operator, rep.JainIndex)
		}
		var sum float64
		for _, u := range rep.PerUE {
			sum += u.Share
			if u.ScheduledSlots == 0 {
				t.Errorf("%s: UE %d never scheduled under PF", rep.Operator, u.UE)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %.6f, want 1", rep.Operator, sum)
		}
	}
}

// UE i's position must not depend on the population size, so growing a
// cell never moves the UEs already in it.
func TestUEPositionsStable(t *testing.T) {
	small, big := UEPositions(7, 3), UEPositions(7, 8)
	if !reflect.DeepEqual(small, big[:3]) {
		t.Errorf("positions moved when the population grew: %v vs %v", small, big[:3])
	}
	for i, p := range big {
		d := math.Hypot(p.X, p.Y)
		if d < 30 || d > 150 {
			t.Errorf("UE %d at distance %.1f m, want within [30, 150]", i, d)
		}
	}
}
