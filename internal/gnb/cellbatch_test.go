package gnb

import (
	"testing"

	"github.com/midband5g/midband/internal/channel"
)

// TestCellBatchRejectsShareModel pins the deprecated alias's contract:
// NewCellBatch accepts only contention-model cells.
func TestCellBatchRejectsShareModel(t *testing.T) {
	cfg := testCellConfig(t, SchedulerEqualShare, []channel.Point{{X: 0, Y: 45}})
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCellBatch(cell); err == nil {
		t.Fatal("NewCellBatch accepted a share-model cell")
	}
	if _, err := NewCellBatch(nil); err == nil {
		t.Fatal("NewCellBatch accepted a nil cell")
	}
}

// TestCellBatchStepAllocs pins the slot loop as bench/midbench drives it
// through the deprecated alias — channel SoA step, CSI, HARQ, scheduler,
// PF window, load coupling — at zero steady-state allocations, with a
// finite-traffic mix.
func TestCellBatchStepAllocs(t *testing.T) {
	ues := []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 90}, {X: 0, Y: 117}, {X: 0, Y: 150}}
	for _, pol := range lockstepPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := contentionConfig(t, pol, ues)
			cfg.Traffic = []UETraffic{{OfferedMbps: 40}, {}, {OfferedMbps: 10}, {}}
			cell, err := NewCell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewCellBatch(cell)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				batch.Step()
			}
			allocs := testing.AllocsPerRun(5000, func() {
				batch.Step()
			})
			if allocs > 0 {
				t.Errorf("Cell.Step via NewCellBatch allocates %.3f objects/slot, want 0", allocs)
			}
		})
	}
}
