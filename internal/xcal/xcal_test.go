package xcal

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func randomKPI(rng *rand.Rand) SlotKPI {
	return SlotKPI{
		Slot:          rng.Int63(),
		Time:          time.Duration(rng.Int63()),
		Carrier:       uint8(rng.Intn(4)),
		RAT:           RAT(rng.Intn(2)),
		Dir:           Direction(rng.Intn(2)),
		CQI:           uint8(rng.Intn(16)),
		MCSTable:      uint8(1 + rng.Intn(2)),
		MCS:           uint8(rng.Intn(29)),
		Rank:          uint8(1 + rng.Intn(4)),
		HARQRetx:      uint8(rng.Intn(4)),
		ACK:           rng.Intn(2) == 0,
		Outage:        rng.Intn(10) == 0,
		RBs:           uint16(rng.Intn(274)),
		ServingCell:   uint16(rng.Intn(1000)),
		REs:           rng.Uint32(),
		TBSBits:       rng.Uint32(),
		DeliveredBits: rng.Uint32(),
		SINRdB:        float32(rng.NormFloat64() * 10),
		RSRPdBm:       float32(-80 + rng.NormFloat64()*5),
		RSRQdB:        float32(-11 + rng.NormFloat64()),
		PosX:          float32(rng.NormFloat64() * 100),
		PosY:          float32(rng.NormFloat64() * 100),
	}
}

func TestSlotKPIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		in := randomKPI(rng)
		b := in.AppendTo(nil)
		if len(b) != SlotKPISize {
			t.Fatalf("encoded size = %d, want %d", len(b), SlotKPISize)
		}
		var out SlotKPI
		if err := DecodeSlotKPI(b, &out); err != nil {
			t.Fatal(err)
		}
		if in != out {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	}
	var k SlotKPI
	if err := DecodeSlotKPI(make([]byte, 10), &k); err == nil {
		t.Error("truncated KPI should fail to decode")
	}
}

func TestMIBRoundTrip(t *testing.T) {
	in := MIB{SFN: 512, SCSkHz: 30, ControlResourceSetZero: 5, SearchSpaceZero: 2}
	var out MIB
	if err := DecodeMIB(in.AppendTo(nil), &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("MIB round trip: %+v vs %+v", in, out)
	}
	if err := DecodeMIB([]byte{1}, &out); err == nil {
		t.Error("truncated MIB should fail")
	}
}

func TestSIB1RoundTrip(t *testing.T) {
	f := func(cell uint32, arfcn uint32, off, rb, scs uint16, fdd bool, layers, table uint8) bool {
		in := SIB1{
			CellID:                  cell,
			Band:                    "n78",
			AbsoluteFrequencyPointA: arfcn,
			OffsetToCarrier:         off,
			CarrierBandwidthRB:      rb,
			SCSkHz:                  scs,
			FDD:                     fdd,
			TDDPattern:              "DDDDDDDSUU",
			MaxMIMOLayers:           layers,
			MCSTable:                table,
		}
		var out SIB1
		if err := DecodeSIB1(in.AppendTo(nil), &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Empty strings survive.
	in := SIB1{Band: "", TDDPattern: ""}
	var out SIB1
	if err := DecodeSIB1(in.AppendTo(nil), &out); err != nil {
		t.Fatal(err)
	}
	if out.Band != "" || out.TDDPattern != "" {
		t.Error("empty strings should round trip")
	}
	if err := DecodeSIB1(make([]byte, 4), &out); err == nil {
		t.Error("truncated SIB1 should fail")
	}
	// Truncated band field.
	full := (&SIB1{Band: "n78", TDDPattern: "DDDSU"}).AppendTo(nil)
	if err := DecodeSIB1(full[:19], &out); err == nil {
		t.Error("SIB1 with cut band should fail")
	}
}

func TestDCIRoundTrip(t *testing.T) {
	f := func(slot int64, fm bool, carrier, mcs uint8, rbs uint16, rank uint8, harq uint8, ndi bool) bool {
		in := DCI{
			Slot: slot, Format: DCIFormat(0), Carrier: carrier, MCS: mcs,
			RBs: rbs, Rank: rank, HARQProcess: harq % 16, NDI: ndi,
		}
		if fm {
			in.Format = DCI11
		}
		var out DCI
		if err := DecodeDCI(in.AppendTo(nil), &out); err != nil {
			return false
		}
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if DCI10.MCSTable() != 1 || DCI11.MCSTable() != 2 {
		t.Error("DCI format → MCS table mapping wrong")
	}
	if DCI10.String() != "1_0" || DCI11.String() != "1_1" {
		t.Error("DCI format strings wrong")
	}
}

func testMeta() Meta {
	return Meta{
		Operator: "V_Sp", Country: "Spain", City: "Madrid",
		CarrierLabel: "n78/90MHz", Scenario: "stationary-dl",
		SlotDuration: 500 * time.Microsecond,
		Start:        time.Date(2024, 1, 15, 10, 0, 0, 0, time.UTC),
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	kpis := make([]SlotKPI, 500)
	for i := range kpis {
		kpis[i] = randomKPI(rng)
	}
	mib := MIB{SFN: 100, SCSkHz: 30}
	sib := SIB1{CellID: 7, Band: "n78", CarrierBandwidthRB: 245, SCSkHz: 30, TDDPattern: "DDDDDDDSUU", MaxMIMOLayers: 4, MCSTable: 2}
	ev := Event{Time: 42 * time.Millisecond, Kind: "chunk-fetch", Data: "q=6"}
	if err := w.WriteMIB(&mib); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSIB1(&sib); err != nil {
		t.Fatal(err)
	}
	for i := range kpis {
		if err := w.WriteKPI(&kpis[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteDCI(&DCI{Slot: 9, Format: DCI11, MCS: 20, RBs: 245, Rank: 4, NDI: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta(); got.Operator != "V_Sp" || got.SlotDuration != 500*time.Microsecond {
		t.Errorf("meta = %+v", got)
	}
	var gotKPI int
	var sawMIB, sawSIB, sawDCI, sawEvent bool
	for {
		ft, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ft {
		case FrameKPI:
			if r.KPI != kpis[gotKPI] {
				t.Fatalf("KPI %d mismatch", gotKPI)
			}
			gotKPI++
		case FrameMIB:
			sawMIB = r.MIB == mib
		case FrameSIB1:
			sawSIB = reflect.DeepEqual(r.SIB1, sib)
		case FrameDCI:
			sawDCI = r.DCI.Format == DCI11 && r.DCI.RBs == 245
		case FrameEvent:
			sawEvent = r.Event == ev
		}
	}
	if gotKPI != len(kpis) {
		t.Errorf("read %d KPIs, want %d", gotKPI, len(kpis))
	}
	if !sawMIB || !sawSIB || !sawDCI || !sawEvent {
		t.Errorf("missing frames: mib=%v sib=%v dci=%v event=%v", sawMIB, sawSIB, sawDCI, sawEvent)
	}
}

func TestTraceBadInputs(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notatrace!"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	// Valid magic, bad version.
	b := append(append([]byte{}, traceMagic[:]...), 0xFF, 0xFF)
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Error("bad version should fail")
	}
	// Header only, no meta frame.
	b = append(append([]byte{}, traceMagic[:]...), 1, 0)
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Error("missing meta frame should fail")
	}
}

func TestTraceFiles(t *testing.T) {
	// A row trace on disk, as xcaldump -convert writes one, reads back
	// through the file.
	path := filepath.Join(t.TempDir(), "session.xcal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	k := randomKPI(rand.New(rand.NewSource(1)))
	if err := w.WriteKPI(&k); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r, err := NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := r.Next()
	if err != nil || ft != FrameKPI || r.KPI != k {
		t.Fatalf("file round trip: type=%v err=%v", ft, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestStrings(t *testing.T) {
	if DL.String() != "DL" || UL.String() != "UL" || NR.String() != "NR" || LTE.String() != "LTE" {
		t.Error("enum strings wrong")
	}
}

func BenchmarkKPIEncode(b *testing.B) {
	k := randomKPI(rand.New(rand.NewSource(2)))
	buf := make([]byte, 0, SlotKPISize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = k.AppendTo(buf[:0])
	}
}

func BenchmarkKPIDecode(b *testing.B) {
	k := randomKPI(rand.New(rand.NewSource(3)))
	buf := k.AppendTo(nil)
	var out SlotKPI
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeSlotKPI(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}
