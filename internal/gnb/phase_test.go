package gnb

import (
	"testing"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/tdd"
)

// referenceSlotSymbols is a slot's data-symbol budget derived from the
// pattern at the absolute slot index, the way the slot path computed it
// with a modulo per slot: DL symbols less the PDCCH symbols (none when
// fewer than one remains) and the symbols of full UL slots only.
func referenceSlotSymbols(cfg *CarrierConfig, slot int64) slotSymbols {
	if cfg.FDD {
		return slotSymbols{dl: phy.SymbolsPerSlot - cfg.PDCCHSymbols, ul: phy.SymbolsPerSlot}
	}
	var s slotSymbols
	if d := cfg.Pattern.DLSymbols(slot); d > 0 && d-cfg.PDCCHSymbols >= 1 {
		s.dl = d - cfg.PDCCHSymbols
	}
	if cfg.Pattern.Slot(slot) == tdd.Uplink {
		s.ul = phy.SymbolsPerSlot
	}
	return s
}

// referenceREsPerPRB is TBSParams.REs at one PRB, written out.
func referenceREsPerPRB(symbols, dmrs int) int {
	return max(0, min(phy.REsPerPRBCap, phy.SubcarriersPerRB*symbols-dmrs))
}

// checkFreshREs fails unless a fresh TB's RE count is its RBs times the
// per-PRB REs of the slot's reference symbol budget (a retransmission
// keeps the REs of the slot it was sized in).
func checkFreshREs(t *testing.T, slot int64, dir string, a *Alloc, symbols, dmrs int) {
	t.Helper()
	if a.HARQRetx == 0 && a.REs != a.RBs*referenceREsPerPRB(symbols, dmrs) {
		t.Fatalf("slot %d %s: %d REs over %d RBs at %d symbols", slot, dir, a.REs, a.RBs, symbols)
	}
}

var phasePatterns = []struct {
	name string
	fdd  bool
	pat  string
}{
	{"DDDSU", false, "DDDSU"},
	{"DDDDDDDSUU", false, "DDDDDDDSUU"},
	{"FDD", true, ""},
}

// TestSlotPhaseCursor steps a Carrier (DL and UL full buffer) and a Cell
// of each model over several periods of DDDSU, DDDDDDDSUU and FDD. Before
// every step the phase cursor must point at the reference budget of the
// slot about to run; after it, every allocation must sit in a slot whose
// reference budget has symbols in that direction and, when fresh, carry
// the REs of that budget.
func TestSlotPhaseCursor(t *testing.T) {
	const slots = 400
	for _, pp := range phasePatterns {
		t.Run(pp.name+"/carrier", func(t *testing.T) {
			c := testCarrier(t, func(cfg *CarrierConfig) {
				cfg.FDD = pp.fdd
				if !pp.fdd {
					cfg.Pattern = tdd.MustParse(pp.pat)
				}
			})
			var dlSlots, ulSlots int
			for i := 0; i < slots; i++ {
				slot := c.Slot()
				want := referenceSlotSymbols(&c.cfg, slot)
				if got := c.tb.phases[c.phase]; got != want {
					t.Fatalf("slot %d: cursor budget %+v, reference %+v", slot, got, want)
				}
				r := c.Step(FullBuffer, FullBuffer)
				if r.DL != nil {
					if want.dl == 0 {
						t.Fatalf("slot %d: DL allocation without DL symbols", slot)
					}
					checkFreshREs(t, slot, "DL", r.DL, want.dl, c.cfg.DMRSPerPRB)
					dlSlots++
				}
				if r.UL != nil {
					if want.ul == 0 {
						t.Fatalf("slot %d: UL allocation without UL symbols", slot)
					}
					checkFreshREs(t, slot, "UL", r.UL, want.ul, c.cfg.DMRSPerPRB)
					ulSlots++
				}
			}
			if dlSlots == 0 || ulSlots == 0 {
				t.Fatalf("%d DL and %d UL allocations: the run checked nothing", dlSlots, ulSlots)
			}
		})
		for _, model := range []CellModel{CellModelShare, CellModelContention} {
			t.Run(pp.name+"/cell-"+model.String(), func(t *testing.T) {
				cfg := testCellConfig(t, SchedulerProportionalFair, []channel.Point{{X: 0, Y: 45}, {X: 30, Y: 60}, {X: -50, Y: 20}})
				cfg.Model = model
				cfg.Carrier.FDD = pp.fdd
				if !pp.fdd {
					cfg.Carrier.Pattern = tdd.MustParse(pp.pat)
				}
				cell, err := NewCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				allocs := 0
				for i := 0; i < slots; i++ {
					slot := cell.slot
					want := referenceSlotSymbols(&cell.cfg.Carrier, slot)
					if got := cell.tb.phases[cell.phase]; got != want {
						t.Fatalf("slot %d: cursor budget %+v, reference %+v", slot, got, want)
					}
					res := cell.Step()
					if len(res.Allocs) > 0 && want.dl == 0 {
						t.Fatalf("slot %d: allocation without DL symbols", slot)
					}
					for k := range res.Allocs {
						checkFreshREs(t, slot, "DL", &res.Allocs[k].Alloc, want.dl, cell.cfg.Carrier.DMRSPerPRB)
						allocs++
					}
				}
				if allocs == 0 {
					t.Fatal("no allocations: the run checked nothing")
				}
			})
		}
	}
}
