package config

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/bands"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// referenceExtract is the extraction procedure over the row container,
// the oracle Extract must match on the same frames: it walks every
// frame in order and keeps the signaling ones.
func referenceExtract(r *xcal.Reader) (*Extraction, error) {
	ex := &Extraction{Meta: r.Meta()}
	dciTotal := map[uint32]int{} // keyed by cell-order index
	dci11 := map[uint32]int{}
	var order []uint32
	byCell := map[uint32]*ChannelConfig{}

	for {
		ft, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("config: reading trace: %w", err)
		}
		switch ft {
		case xcal.FrameMIB:
			ex.MIBs++
		case xcal.FrameSIB1:
			sib := r.SIB1 // copy
			cc, err := fromSIB1(&sib)
			if err != nil {
				return nil, err
			}
			if _, ok := byCell[sib.CellID]; !ok {
				order = append(order, sib.CellID)
			}
			byCell[sib.CellID] = &cc
		case xcal.FrameDCI:
			key := uint32(r.DCI.Carrier)
			dciTotal[key]++
			if r.DCI.Format == xcal.DCI11 {
				dci11[key]++
			}
		}
	}

	for i, id := range order {
		cc := byCell[id]
		if n := dciTotal[uint32(i)]; n > 0 {
			cc.DCICount = n
			cc.DCI11Share = float64(dci11[uint32(i)]) / float64(n)
		}
		ex.Carriers = append(ex.Carriers, *cc)
	}
	if len(ex.Carriers) == 0 {
		return nil, fmt.Errorf("config: trace %q contains no SIB1 frames", ex.Meta.Scenario)
	}
	return ex, nil
}

// captureTrace runs a short session for an operator and returns the
// columnar trace.
func captureTrace(t *testing.T, acr string) []byte {
	t.Helper()
	op, err := operators.ByAcronym(acr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(op, operators.Stationary(31))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := xcol.NewWriter(&buf, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunIperf(time.Second, net5g.Saturate, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// extractBoth runs Extract over a columnar trace and referenceExtract
// over its row conversion, and fails unless the two agree exactly,
// error text included.
func extractBoth(t *testing.T, trace []byte) (*Extraction, error) {
	t.Helper()
	s, err := xcol.NewScanner(xcol.BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := Extract(s)

	var row bytes.Buffer
	if _, err := xcol.ConvertColToRow(xcol.BytesReaderAt(trace), int64(len(trace)), &row); err != nil {
		t.Fatal(err)
	}
	r, err := xcal.NewReader(bytes.NewReader(row.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := referenceExtract(r)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extraction diverges from the row reference:\n got  %+v\n want %+v", got, want)
	}
	return got, gotErr
}

func extract(t *testing.T, trace []byte) *Extraction {
	t.Helper()
	ex, err := extractBoth(t, trace)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestExtractTable2Row(t *testing.T) {
	// End-to-end Appendix 10.1: run V_Sp, decode its signaling, recover
	// the Table 2 row: n78, 30 kHz, TDD, 90 MHz, N_RB 245, 4 layers.
	ex := extract(t, captureTrace(t, "V_Sp"))
	if ex.MIBs == 0 {
		t.Error("no MIB captured")
	}
	if len(ex.Carriers) != 1 {
		t.Fatalf("V_Sp should have 1 carrier, got %d", len(ex.Carriers))
	}
	c := ex.Carriers[0]
	if c.Band != "n78" || c.SCSkHz != 30 || c.Duplex != "TDD" {
		t.Errorf("recovered %+v, want n78/30kHz TDD", c)
	}
	if c.NRB != 245 || c.BandwidthMHz != 90 {
		t.Errorf("N_RB=%d → %d MHz, want 245 → 90", c.NRB, c.BandwidthMHz)
	}
	if c.TDDPattern != "DDDDDDDSUU" {
		t.Errorf("TDD pattern %q", c.TDDPattern)
	}
	if c.MaxMIMOLayers != 4 || c.MCSTable != 2 {
		t.Errorf("layers=%d table=%d, want 4/2", c.MaxMIMOLayers, c.MCSTable)
	}
	// The recovered frequency sits inside n78.
	if c.FrequencyMHz < 3300 || c.FrequencyMHz > 3800 {
		t.Errorf("frequency %.0f MHz outside n78", c.FrequencyMHz)
	}
	if c.Note != "" {
		t.Errorf("unexpected extraction note: %s", c.Note)
	}
	// DCI format mix: a 256QAM-table operator uses format 1_1.
	if c.DCICount == 0 || c.DCI11Share < 0.9 {
		t.Errorf("DCI: count=%d 1_1 share=%.2f, want mostly 1_1", c.DCICount, c.DCI11Share)
	}
}

func TestExtract64QAMOperatorUsesDCI10(t *testing.T) {
	ex := extract(t, captureTrace(t, "O_Sp100"))
	c := ex.Carriers[0]
	if c.MCSTable != 1 {
		t.Errorf("O_Sp100 table = %d, want 1", c.MCSTable)
	}
	if c.DCICount == 0 || c.DCI11Share > 0.1 {
		t.Errorf("64QAM operator should use DCI 1_0: share=%.2f", c.DCI11Share)
	}
	if c.BandwidthMHz != 100 || c.NRB != 273 {
		t.Errorf("recovered %d MHz / %d RB, want 100/273", c.BandwidthMHz, c.NRB)
	}
}

func TestExtractTMobileCA(t *testing.T) {
	// Table 3's most intricate row: four carriers, two of them the n25
	// FDD channels whose printed N_RB values don't match the signaled
	// 15 kHz SCS — extraction must flag exactly that.
	ex := extract(t, captureTrace(t, "Tmb_US"))
	if len(ex.Carriers) != 4 {
		t.Fatalf("T-Mobile should expose 4 carriers, got %d", len(ex.Carriers))
	}
	pc := ex.Carriers[0]
	if pc.Band != "n41" || pc.BandwidthMHz != 100 || pc.NRB != 273 {
		t.Errorf("PCell recovered as %+v", pc)
	}
	flagged := 0
	for _, c := range ex.Carriers {
		if c.Band != "n25" {
			if c.Note != "" {
				t.Errorf("%s unexpectedly flagged: %s", c.Band, c.Note)
			}
			continue
		}
		if c.Duplex != "FDD" {
			t.Errorf("n25 should be FDD, got %s", c.Duplex)
		}
		if !strings.Contains(c.Note, "30 kHz column") {
			t.Errorf("n25 N_RB=%d should be flagged as the paper's 30 kHz-column value, note=%q", c.NRB, c.Note)
		} else {
			flagged++
		}
		if c.BandwidthMHz != 20 && c.BandwidthMHz != 5 {
			t.Errorf("n25 recovered bandwidth %d, want 20 or 5", c.BandwidthMHz)
		}
	}
	if flagged != 2 {
		t.Errorf("expected both n25 carriers flagged, got %d", flagged)
	}
}

func TestExtractErrors(t *testing.T) {
	// A trace with no SIB1 fails extraction.
	var buf bytes.Buffer
	w, err := xcol.NewWriter(&buf, xcal.Meta{Scenario: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	k := xcal.SlotKPI{Slot: 1}
	if err := w.WriteKPI(&k); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := extractBoth(t, buf.Bytes()); err == nil {
		t.Error("extraction without SIB1 should fail")
	}

	// A corrupt signaling block fails extraction instead of returning a
	// table without the carriers it held.
	trace := captureTrace(t, "Tmb_US")
	s, err := xcol.NewScanner(xcol.BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, e := range s.Index() {
		if e.Kind == 3 { // aux
			trace[e.Offset+13+uint64(e.Len/2)] ^= 0xff // mid-payload, past the 13-byte block header
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("captured trace has no signaling block")
	}
	s, err = xcol.NewScanner(xcol.BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(s); err == nil || !strings.Contains(err.Error(), "payload CRC mismatch") {
		t.Errorf("extraction over a corrupt signaling block returned %v, want a CRC error", err)
	}
}

// genSignaling writes a generated signaling stream through an xcol
// writer: n KPI records, each preceded with probability 1/(rate+1),
// repeatedly, by a MIB, SIB1, DCI or event frame (rate 0 writes none),
// plus trailing frames and Flush calls. SIB1s draw cell IDs from a small
// pool (so cells repeat), known and unknown bands, N_RB values on and
// off the standard channelizations and, in one stream of eight, an SCS
// with no numerology; DCIs mix formats 1_0 and 1_1 over carrier indices
// that may have no SIB1.
func genSignaling(seed int64, n int, rate byte) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := xcol.NewWriter(&buf, xcal.Meta{Operator: "gen", Scenario: fmt.Sprint(seed)})
	if err != nil {
		return nil, err
	}
	names := []string{"n25", "n41", "n77", "n78", "n261", "b66", "", "n999"}
	nrbs := []uint16{11, 25, 51, 52, 66, 106, 132, 133, 245, 264, 273, 0, 100, 300}
	scs := []uint16{15, 30, 60, 120}
	badSCS := rng.Intn(8) == 0 // some streams carry a SIB1 extraction must reject
	signal := func() error {
		switch rng.Intn(5) {
		case 0:
			return w.WriteMIB(&xcal.MIB{SFN: uint16(rng.Intn(1024)), SCSkHz: 30})
		case 1:
			sib := xcal.SIB1{
				CellID:             uint32(100 + rng.Intn(6)),
				Band:               names[rng.Intn(len(names))],
				CarrierBandwidthRB: nrbs[rng.Intn(len(nrbs))],
				SCSkHz:             scs[rng.Intn(len(scs))],
				FDD:                rng.Intn(2) == 0,
				TDDPattern:         []string{"", "DDDSU", "DDDDDDDSUU"}[rng.Intn(3)],
				MaxMIMOLayers:      uint8(rng.Intn(5)),
				MCSTable:           uint8(1 + rng.Intn(2)),
			}
			if badSCS && rng.Intn(4) == 0 {
				sib.SCSkHz = 45 // no numerology: extraction fails on this cell
			}
			if b, err := bands.ByName(sib.Band); err == nil && rng.Intn(3) > 0 {
				sib.AbsoluteFrequencyPointA, _ = bands.FreqToARFCN(b.LowMHz + rng.Float64()*(b.HighMHz-b.LowMHz))
			} else {
				sib.AbsoluteFrequencyPointA = rng.Uint32()
			}
			return w.WriteSIB1(&sib)
		case 2, 3:
			return w.WriteDCI(&xcal.DCI{Slot: int64(rng.Intn(1 << 20)), Format: xcal.DCIFormat(rng.Intn(2)),
				Carrier: uint8(rng.Intn(5)), MCS: uint8(rng.Intn(28)), RBs: uint16(rng.Intn(273)), Rank: 1})
		default:
			return w.WriteEvent(xcal.Event{Time: time.Duration(rng.Intn(1e9)), Kind: "chunk"})
		}
	}
	for i := 0; i <= n; i++ {
		for rate > 0 && rng.Intn(int(rate)+1) == 0 {
			if err := signal(); err != nil {
				return nil, err
			}
		}
		if rng.Intn(512) == 0 {
			if err := w.Flush(); err != nil {
				return nil, err
			}
		}
		if i == n {
			break
		}
		k := xcal.SlotKPI{Slot: int64(i), Time: time.Duration(i) * 500 * time.Microsecond,
			Carrier: uint8(rng.Intn(4)), RBs: uint16(rng.Intn(273)), MCS: uint8(rng.Intn(28)), SINRdB: float32(rng.NormFloat64())}
		if err := w.WriteKPI(&k); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FuzzExtract checks Extract over generated columnar streams against
// referenceExtract over their row conversion: equal results, or equal
// error texts. Streams of up to 5000 records span several KPI blocks,
// and dense signaling spills into several aux blocks.
func FuzzExtract(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))    // no signaling at all
	f.Add(int64(2), uint16(10), uint8(1))   // dense signaling, one block
	f.Add(int64(3), uint16(2049), uint8(3)) // across a KPI block edge
	f.Add(int64(4), uint16(5000), uint8(1)) // several KPI and aux blocks
	f.Add(int64(5), uint16(300), uint8(40)) // sparse signaling
	f.Fuzz(func(t *testing.T, seed int64, n uint16, rate uint8) {
		trace, err := genSignaling(seed, int(n)%5001, rate%64)
		if err != nil {
			t.Fatal(err)
		}
		extractBoth(t, trace)
	})
}
