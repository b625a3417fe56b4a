package experiments

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// scanTraceSeries rebuilds the per-step series the variability figures
// read (DLBitsPerSlot and the PCell DL MCS, Rank and RBs) from a
// projected scan of a columnar trace. Records carry Time = slot ×
// carrier slot duration; every carrier's slot duration is a power-of-two
// multiple of the link step, so each record's Time equals the link time
// of the step that produced it and (Time - start) / step recovers the
// step index exactly. The first record in block order belongs to the
// first measured step (the fastest carrier ticks every step), which pins
// the start offset left behind by warm-up.
func scanTraceSeries(r io.ReaderAt, size int64, slotDur, d time.Duration) (*iperf.Series, error) {
	steps := int(d / slotDur)
	out := &iperf.Series{
		SlotDuration:  slotDur,
		DLBitsPerSlot: make([]float64, steps),
		MCS:           make([]float64, steps),
		Rank:          make([]float64, steps),
		RBs:           make([]float64, steps),
	}
	s, err := xcol.NewScanner(r, size)
	if err != nil {
		return nil, err
	}
	s.SetProjection(xcol.GoodputColumns | 1<<xcol.ColTime)

	start := time.Duration(-1)
	for {
		blk, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		// Projected decode: only the requested column slices are
		// populated, so read them directly rather than through Row.
		for i := 0; i < blk.Count; i++ {
			if start < 0 {
				start = blk.Time[i]
			}
			if xcal.RAT(blk.RAT[i]) != xcal.NR || xcal.Direction(blk.Dir[i]) != xcal.DL {
				continue
			}
			step := int((blk.Time[i] - start) / slotDur)
			if step < 0 || step >= steps {
				continue
			}
			out.DLBitsPerSlot[step] += float64(blk.DeliveredBits[i])
			if blk.Carrier[i] == 0 {
				out.MCS[step] = float64(blk.MCS[i])
				out.Rank[step] = float64(blk.Rank[i])
				out.RBs[step] = float64(blk.RBs[i])
			}
		}
	}
	if be := s.Corrupt(); len(be) > 0 {
		return nil, fmt.Errorf("trace scan skipped %d corrupt block(s); first: %v", len(be), be[0].Err)
	}
	return out, nil
}

// TestScanSeriesMatchesDirect pins the trace-reproducibility contract of
// the variability figures (Figs. 12 and 13): the series rebuilt from a
// projected scan of the session's captured .xcol trace must equal the
// in-memory iperf.Series exactly — not approximately — so what
// the figures plot is derivable from captured traces alone.
func TestScanSeriesMatchesDirect(t *testing.T) {
	const seed = 2024 + 47
	d := 3 * time.Second
	demand := net5g.Demand{DL: true}

	_, direct, err := measure("V_Sp", d, demand, seed)
	if err != nil {
		t.Fatal(err)
	}
	op, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(op, operators.Stationary(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := xcol.NewWriter(&buf, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunIperf(d, demand, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scanned, err := scanTraceSeries(bytes.NewReader(buf.Bytes()), int64(buf.Len()), sess.Link.SlotDuration(), d)
	if err != nil {
		t.Fatal(err)
	}

	if scanned.SlotDuration != direct.SlotDuration {
		t.Fatalf("slot duration %v vs %v", scanned.SlotDuration, direct.SlotDuration)
	}
	eq := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d slots scanned vs %d direct", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: scanned %v, direct %v", name, i, got[i], want[i])
			}
		}
	}
	eq("DLBitsPerSlot", scanned.DLBitsPerSlot, direct.DLBitsPerSlot)
	eq("MCS", scanned.MCS, direct.MCS)
	eq("Rank", scanned.Rank, direct.Rank)
	eq("RBs", scanned.RBs, direct.RBs)

	// The derived series the figures actually consume.
	eq("ThroughputMbpsSeries", scanned.ThroughputMbpsSeries(), direct.ThroughputMbpsSeries())
	eq("DLThroughputProcess", scanned.DLThroughputProcess(), direct.DLThroughputProcess())
	eq("FilterDL(MCS)", scanned.FilterDL(scanned.MCS), direct.FilterDL(direct.MCS))
	eq("FilterDL(Rank)", scanned.FilterDL(scanned.Rank), direct.FilterDL(direct.Rank))
}
