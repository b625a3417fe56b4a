package gnb

import (
	"math"
	"testing"

	"github.com/midband5g/midband/internal/channel"
)

// referenceRankPF is the PF ranking rankPF replaced: a stable insertion
// sort that starts from UE-index order in every slot, so ties keep
// UE-index order. It keeps no state between calls, which makes it the
// oracle for rankPF's previous-slot seed. order must be ascending; the
// returned order is a fresh slice.
func referenceRankPF(instSE, served []float64, order []int) ([]pfScore, []int, float64) {
	ss := make([]pfScore, 0, len(order))
	ord := append([]int(nil), order...)
	total := 0.0
	for _, idx := range ord {
		m := instSE[idx] / served[idx]
		ss = append(ss, pfScore{idx, m})
		total += m
	}
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].metric > ss[j-1].metric; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ss, ord, total
}

// FuzzRankPF drives one cell's rankPF over a decoded sequence of ready
// sets and compares order, scores and total with referenceRankPF bit for
// bit on every call, so the ranking carried from call to call is always
// checked. The cell has 1–64 UEs. The input is read cyclically, one byte
// per UE per call, for 1 + len(sets) calls (at most 64): bit 0
// puts the UE in the ready set, so sets churn, and may be empty or hold
// one UE. Bits 1–2 pick instSE from four values and bits 3–4 a served
// rate that is mostly the clamp of 1, so equal metrics are common, also
// between UEs with different instSE (4.5/2 = 2.25/1).
func FuzzRankPF(f *testing.F) {
	f.Add(uint8(3), []byte{1, 3, 5, 7, 0, 1, 1, 1, 6, 5, 3, 1})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(63), []byte{0x01, 0x07, 0x1d, 0x05, 0x03, 0x00, 0x15, 0x0f, 0x11, 0x09, 0x1f})
	f.Add(uint8(15), []byte{0xff, 0xfe, 0x01, 0x00, 0x21, 0x13, 0x0b, 0x02})
	seVals := [4]float64{0, 1.5, 2.25, 4.5}
	servedVals := [4]float64{1, 1, 1, 2}
	f.Fuzz(func(t *testing.T, nUEs uint8, sets []byte) {
		n := 1 + int(nUEs)%64
		ues := make([]channel.Point, n)
		for i := range ues {
			ues[i] = channel.Point{X: 40 + float64(i)*10}
		}
		cell, err := NewCell(contentionConfig(t, SchedulerProportionalFair, ues))
		if err != nil {
			t.Fatal(err)
		}
		calls := min(1+len(sets), 64)
		for call := 0; call < calls; call++ {
			order := cell.order[:0]
			for i := 0; i < n; i++ {
				b := byte(0)
				if len(sets) > 0 {
					b = sets[(call*n+i)%len(sets)]
				}
				cell.instSE[i] = seVals[b>>1&3]
				cell.served[i] = servedVals[b>>3&3]
				if b&1 != 0 {
					order = append(order, i)
				}
			}
			cell.order = order
			wantSS, wantOrder, wantTotal := referenceRankPF(cell.instSE, cell.served, order)
			ss, total := cell.rankPF(order)
			if math.Float64bits(total) != math.Float64bits(wantTotal) {
				t.Fatalf("call %d: total %v, want %v", call, total, wantTotal)
			}
			if len(ss) != len(wantSS) {
				t.Fatalf("call %d: %d scores, want %d", call, len(ss), len(wantSS))
			}
			for k := range ss {
				if ss[k].idx != wantSS[k].idx || math.Float64bits(ss[k].metric) != math.Float64bits(wantSS[k].metric) {
					t.Fatalf("call %d: scores[%d] = %+v, want %+v", call, k, ss[k], wantSS[k])
				}
				if order[k] != wantOrder[k] {
					t.Fatalf("call %d: order[%d] = %d, want %d", call, k, order[k], wantOrder[k])
				}
			}
		}
	})
}
