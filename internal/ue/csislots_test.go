package ue

import (
	"math"
	"testing"

	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
)

// referenceObserve is Observe as it tested every slot with a modulo
// against the reporting period, kept verbatim as the oracle for the
// interval check that replaced it.
func referenceObserve(c *CSI, slot int64, sinrDB float64) {
	n := 0
	for n < len(c.pending) && slot-c.pending[n].Slot >= int64(c.cfg.DelaySlots) {
		c.current = c.pending[n]
		c.primed = true
		n++
	}
	if n > 0 {
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	}
	if slot%int64(c.cfg.PeriodSlots) != 0 {
		return
	}
	if math.IsInf(sinrDB, -1) { // outage: out-of-range report
		c.pending = append(c.pending, Report{Slot: slot, RI: 1, CQI: 0})
		if obs.Enabled() {
			obs.Sim.CQIReports.Inc()
			obs.Sim.CQI.Observe(0)
		}
		return
	}
	rank := c.rankFor(sinrDB)
	c.lastRank = rank
	perLayer := phy.DBToLinear(sinrDB+c.cfg.CQIOptimismDB) /
		math.Pow(float64(rank), c.cfg.LayerPenaltyExp)
	se := math.Log2(1 + perLayer)
	cqi := c.cfg.Table.CQIFromEfficiency(se)
	c.pending = append(c.pending, Report{Slot: slot, RI: rank, CQI: cqi})
	if obs.Enabled() {
		obs.Sim.CQIReports.Inc()
		obs.Sim.CQI.Observe(float64(cqi))
	}
}

// checkCSISame fails unless two loops hold the same reports and rank
// memory.
func checkCSISame(t *testing.T, step int, slot int64, got, want *CSI) {
	t.Helper()
	if got.current != want.current || got.primed != want.primed || got.lastRank != want.lastRank ||
		len(got.pending) != len(want.pending) {
		t.Fatalf("step %d (slot %d): current %+v primed %v rank %d pending %v, reference %+v %v %d %v",
			step, slot, got.current, got.primed, got.lastRank, got.pending,
			want.current, want.primed, want.lastRank, want.pending)
	}
	for i := range got.pending {
		if got.pending[i] != want.pending[i] {
			t.Fatalf("step %d (slot %d): pending %v, reference %v", step, slot, got.pending, want.pending)
		}
	}
}

// FuzzCSIReportSlots drives Observe over a generated slot sequence and a
// second loop with the same config through referenceObserve. Each step is
// two bytes: an op that moves the slot (ascending by one, jumps forward
// or backward, next to MaxInt64 or MinInt64, next to a reporting slot;
// int64 arithmetic wraps) and, with its high bit, resets both loops
// first; and an argument that also sets the SINR (255 is an outage).
// Both loops must hold the same reports after every step and stand at
// the same position of their random streams at the end.
func FuzzCSIReportSlots(f *testing.F) {
	f.Add(int64(1), uint8(39), uint8(8), int64(0), []byte{0, 100, 0, 120, 1, 140, 2, 160, 3, 40, 0, 200, 0, 255, 3, 37, 0, 90})
	f.Add(int64(2), uint8(4), uint8(0), int64(-12), []byte{0, 100, 1, 110, 2, 130, 0, 150, 0, 170, 4, 3, 0, 200, 7, 2, 7, 254})
	f.Add(int64(3), uint8(39), uint8(8), int64(math.MaxInt64-45), []byte{3, 5, 0, 100, 0, 100, 0, 100, 0, 100, 0, 100, 0, 100, 0, 100})
	f.Add(int64(4), uint8(0), uint8(3), int64(math.MinInt64), []byte{0, 80, 0, 90, 6, 0, 6, 1, 5, 0, 5, 3, 0, 200, 0, 220})
	f.Add(int64(5), uint8(9), uint8(2), int64(math.MaxInt64-9), []byte{5, 0, 0, 100, 0, 120, 6, 9, 4, 10, 0, 100, 0x80, 130, 0, 140})
	f.Add(int64(6), uint8(63), uint8(15), int64(640), []byte{4, 64, 4, 1, 3, 200, 7, 0, 7, 255, 0x87, 1, 1, 50, 2, 60})
	f.Fuzz(func(t *testing.T, seed int64, period, delay uint8, start int64, steps []byte) {
		cfg := CSIConfig{
			Table:       phy.CQITable256QAM,
			PeriodSlots: 1 + int(period%64),
			DelaySlots:  int(delay % 16),
			Seed:        seed,
		}
		got, err := NewCSI(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewCSI(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := int64(got.cfg.PeriodSlots)
		slot := start
		for k := 0; k+1 < len(steps); k += 2 {
			op, arg := steps[k], steps[k+1]
			switch op & 7 {
			case 3:
				slot += int64(arg)
			case 4:
				slot -= int64(arg)
			case 5:
				slot = math.MaxInt64 - int64(arg)
			case 6:
				slot = math.MinInt64 + int64(arg)
			case 7:
				slot = slot - slot%p + int64(int8(arg))%4
			default:
				slot++
			}
			if op&0x80 != 0 {
				got.Reset()
				want.Reset()
			}
			sinr := math.Inf(-1)
			if arg != 255 {
				sinr = float64(int(arg)-60) / 4
			}
			got.Observe(slot, sinr)
			referenceObserve(want, slot, sinr)
			checkCSISame(t, k/2, slot, got, want)
		}
		for i := 0; i < 4; i++ {
			if g, w := got.rng.Float64(), want.rng.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("random streams apart after the run: draw %d = %v, reference %v", i, g, w)
			}
		}
	})
}
