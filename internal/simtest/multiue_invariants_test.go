package simtest_test

import (
	"testing"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/simtest"
)

// checkContentionAlloc is checkAlloc relaxed for the contention model:
// finite-traffic UEs drain only their backlog from the final TB of a
// burst, so DeliveredBits may sit anywhere in [0, TBS] (the rest is
// padding). The structural bounds are unchanged.
func checkContentionAlloc(t *testing.T, slot int64, a gnb.Alloc, nrb int) {
	t.Helper()
	if a.RBs < 1 || a.RBs > nrb {
		t.Fatalf("slot %d: RBs %d outside [1, %d]", slot, a.RBs, nrb)
	}
	if a.Rank < 1 || a.Rank > 4 {
		t.Fatalf("slot %d: rank %d outside [1, 4]", slot, a.Rank)
	}
	if bound := a.REs * a.Rank * maxBitsPerRE; a.TBSBits > bound {
		t.Fatalf("slot %d: TBS %d bits exceeds capacity %d (REs=%d rank=%d)",
			slot, a.TBSBits, bound, a.REs, a.Rank)
	}
	if a.DeliveredBits < 0 || a.DeliveredBits > a.TBSBits {
		t.Fatalf("slot %d: goodput %d outside [0, TBS %d]", slot, a.DeliveredBits, a.TBSBits)
	}
	if !a.ACK && a.DeliveredBits != 0 {
		t.Fatalf("slot %d: NACKed TB delivered %d bits", slot, a.DeliveredBits)
	}
}

// sweepContentionInvariants drives a cell for 20000 slots and asserts
// per slot: RB conservation summed across the whole UE set, at
// most one grant per UE (a HARQ retransmission consumes the UE's slot),
// HARQ retransmission counts within the configured cap, CQI-0 slots
// carrying retransmissions only (they were sized by an earlier report;
// fresh grants need a current CQI), the structural per-TB bounds, and
// the PF window's ≥1 clamp.
func sweepContentionInvariants(t *testing.T, cell *gnb.Cell, nrb, maxRetx int) {
	granted := make([]bool, cell.NumUEs())
	for s := 0; s < 20000; s++ {
		slot := cell.Step()
		sum := 0
		for i := range granted {
			granted[i] = false
		}
		for _, a := range slot.Allocs {
			if granted[a.UE] {
				t.Fatalf("slot %d: UE %d granted twice", slot.Slot, a.UE)
			}
			granted[a.UE] = true
			if int(a.Alloc.HARQRetx) > maxRetx {
				t.Fatalf("slot %d: UE %d at retx %d, cap %d", slot.Slot, a.UE, a.Alloc.HARQRetx, maxRetx)
			}
			if a.CQI == 0 && a.Alloc.HARQRetx == 0 {
				t.Fatalf("slot %d: UE %d got a fresh grant with CQI 0", slot.Slot, a.UE)
			}
			checkContentionAlloc(t, slot.Slot, a.Alloc, nrb)
			sum += a.Alloc.RBs
		}
		if sum > nrb {
			t.Fatalf("slot %d: %d RBs granted on a %d-RB carrier", slot.Slot, sum, nrb)
		}
		for i := 0; i < cell.NumUEs(); i++ {
			if r := cell.ServedRate(i); r < 1 {
				t.Fatalf("slot %d: UE %d PF served rate %g below the ≥1 clamp", slot.Slot, i, r)
			}
		}
	}
}

// contentionSweepConfig is the shared mixed-traffic five-UE scenario the
// invariant sweeps run on.
func contentionSweepConfig(pol gnb.SchedulerPolicy, seed int64) gnb.CellConfig {
	return gnb.CellConfig{
		Carrier: carrierConfig(seed),
		UEs: []channel.Point{
			{X: 120}, {X: 450}, {X: 800, Y: 300}, {X: 1200}, {X: 300, Y: -200},
		},
		Traffic: []gnb.UETraffic{
			{}, {OfferedMbps: 20}, {}, {OfferedMbps: 5}, {},
		},
		Policy: pol,
		Model:  gnb.CellModelContention,
		Seed:   seed,
	}
}

var sweepPolicies = []gnb.SchedulerPolicy{
	gnb.SchedulerEqualShare,
	gnb.SchedulerProportionalFair,
	gnb.SchedulerMaxRate,
	gnb.SchedulerRoundRobin,
}

// TestContentionSchedulerInvariants sweeps every policy over the full
// contention model — five UEs, mixed full-buffer and finite traffic —
// asserting the scheduler contracts directly on Cell.Step's output. The
// lockstep and fuzz tests in internal/gnb pin that engine to the scalar
// oracle draw for draw; this sweep checks the contracts themselves, so a
// drift that both sides share still surfaces here.
func TestContentionSchedulerInvariants(t *testing.T) {
	for _, pol := range sweepPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			simtest.Run(t, "contention/"+pol.String(), 3, func(t *testing.T, seed int64) {
				cfg := contentionSweepConfig(pol, seed)
				cell, err := gnb.NewCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := cell.Config().Carrier // defaults applied
				sweepContentionInvariants(t, cell, got.NRB, got.MaxHARQRetx)
			})
		})
	}
}

// TestBatchContentionSchedulerInvariants runs the identical sweep on
// the batch/ seed set through NewCellBatch, the deprecated entry point
// bench/midbench still steps cells through, so the scheduler contracts
// are checked at that boundary for as long as it exists.
func TestBatchContentionSchedulerInvariants(t *testing.T) {
	for _, pol := range sweepPolicies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			simtest.Run(t, "batch/"+pol.String(), 3, func(t *testing.T, seed int64) {
				cfg := contentionSweepConfig(pol, seed)
				cell, err := gnb.NewCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := gnb.NewCellBatch(cell)
				if err != nil {
					t.Fatal(err)
				}
				got := batch.Config().Carrier // defaults applied
				sweepContentionInvariants(t, batch, got.NRB, got.MaxHARQRetx)
			})
		})
	}
}

// TestContentionPFNoStarvation is the PF fairness contract: with every
// UE backlogged, the window-smoothed metric must hand each contender a
// non-trivial fraction of the scheduled slots — even the cell-edge UE
// whose instantaneous rate never wins outright.
func TestContentionPFNoStarvation(t *testing.T) {
	simtest.Run(t, "contention/pf-starvation", 3, func(t *testing.T, seed int64) {
		cfg := gnb.CellConfig{
			Carrier: carrierConfig(seed),
			UEs: []channel.Point{
				{X: 120}, {X: 450}, {X: 900}, {X: 1500},
			},
			Policy: gnb.SchedulerProportionalFair,
			Model:  gnb.CellModelContention,
			Seed:   seed,
		}
		cell, err := gnb.NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]float64, cell.NumUEs())
		slots := make([]float64, cell.NumUEs())
		var totalSlots float64
		for s := 0; s < 40000; s++ {
			for _, a := range cell.Step().Allocs {
				bits[a.UE] += float64(a.Alloc.DeliveredBits)
				slots[a.UE]++
				totalSlots++
			}
		}
		for i := range bits {
			if bits[i] == 0 {
				t.Errorf("UE %d delivered nothing in 40000 slots under PF", i)
			}
			if share := slots[i] / totalSlots; share < 0.01 {
				t.Errorf("UE %d scheduled-slot share %.4f, want ≥ 0.01 (PF must not starve)", i, share)
			}
		}
	})
}
