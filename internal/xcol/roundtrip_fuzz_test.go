package xcol

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/xcal"
)

// streamOp is one write of a generated trace stream: a KPI record
// (kpi ≥ 0, an index into the records) or a signaling frame.
type streamOp struct {
	kpi   int
	frame xcal.FrameType // FrameMIB, FrameSIB1, FrameDCI, FrameEvent; 0 = Flush
	mib   xcal.MIB
	sib1  xcal.SIB1
	dci   xcal.DCI
	event xcal.Event
}

// colGen draws one column's values under one of its adversarial shapes.
type colGen struct {
	mode  byte
	rng   *rand.Rand
	mask  uint64
	cur   uint64
	scale uint64
	float bool
}

const colModes = 9

func (c *colGen) next() uint64 {
	switch c.mode % colModes {
	case 0: // constant
	case 1: // runs of a wide value
		if c.rng.Intn(16) == 0 {
			c.cur = c.rng.Uint64()
		}
	case 2: // full-width random
		c.cur = c.rng.Uint64()
	case 3: // common divisor > 1 over a wide offset
		c.cur = c.scale * uint64(c.rng.Intn(1000))
	case 4: // monotone small steps, wrapping
		c.cur += uint64(c.rng.Intn(4))
	case 5: // small range
		c.cur = uint64(c.rng.Intn(8))
	case 6: // alternating extremes
		c.cur = ^c.cur
	case 7: // ±1 jitter around a wide value (negative deltas)
		c.cur += uint64(c.rng.Intn(3)) - 1
	case 8: // floats: NaN, ±Inf, ±0, extremes and subnormals; else bytes
		if !c.float {
			c.cur = uint64(c.rng.Intn(256))
			break
		}
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, -12.25, 18.5}
		c.cur = uint64(math.Float32bits(specials[c.rng.Intn(len(specials))]))
	}
	return c.cur & c.mask
}

// genStream builds n KPI records, each column shaped by its mode byte
// (drawn from the seed when modes runs out), interleaved with MIB, SIB1,
// DCI and event frames and Flush calls before, between and after them.
// Each record is preceded by signaling with probability 1/(auxRate+1),
// repeatedly (0 = never).
func genStream(seed int64, n int, modes []byte, auxRate byte) ([]xcal.SlotKPI, []streamOp) {
	rng := rand.New(rand.NewSource(seed))
	widths := []uint{64, 64, 8, 8, 8, 8, 8, 8, 8, 8, 1, 1, 16, 16, 32, 32, 32, 32, 32, 32, 32, 32}
	cols := make([]colGen, len(widths))
	for i, w := range widths {
		mode := byte(rng.Intn(colModes))
		if i < len(modes) {
			mode = modes[i]
		}
		mask := uint64(math.MaxUint64)
		if w < 64 {
			mask = 1<<w - 1
		}
		cols[i] = colGen{mode: mode, rng: rng, mask: mask, cur: rng.Uint64(),
			scale: 2 + uint64(rng.Intn(1<<12)), float: i >= 17}
		cols[i].cur += cols[i].scale * uint64(rng.Intn(1000))
	}
	letters := func() string {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = "abcDU=7 -"[rng.Intn(9)]
		}
		return string(b)
	}
	aux := func(ops []streamOp) []streamOp {
		var op streamOp
		op.kpi = -1
		switch rng.Intn(5) {
		case 0:
			op.frame = xcal.FrameMIB
			op.mib = xcal.MIB{SFN: uint16(rng.Uint32()), SCSkHz: uint16(rng.Intn(240)),
				ControlResourceSetZero: uint8(rng.Intn(16)), SearchSpaceZero: uint8(rng.Intn(16))}
		case 1:
			op.frame = xcal.FrameSIB1
			op.sib1 = xcal.SIB1{CellID: rng.Uint32(), Band: letters(), AbsoluteFrequencyPointA: rng.Uint32(),
				OffsetToCarrier: uint16(rng.Uint32()), CarrierBandwidthRB: uint16(rng.Intn(276)),
				SCSkHz: 30, FDD: rng.Intn(2) == 0, TDDPattern: letters(), MaxMIMOLayers: uint8(rng.Intn(5)),
				MCSTable: uint8(rng.Intn(3))}
		case 2:
			op.frame = xcal.FrameDCI
			op.dci = xcal.DCI{Slot: int64(rng.Uint64()), Format: xcal.DCIFormat(rng.Intn(2)),
				Carrier: uint8(rng.Intn(4)), MCS: uint8(rng.Intn(32)), RBs: uint16(rng.Intn(276)),
				Rank: uint8(1 + rng.Intn(4)), HARQProcess: uint8(rng.Intn(16)), NDI: rng.Intn(2) == 0}
		case 3:
			op.frame = xcal.FrameEvent
			op.event = xcal.Event{Time: time.Duration(rng.Int63()), Kind: letters(), Data: letters()}
		}
		return append(ops, op)
	}
	records := make([]xcal.SlotKPI, n)
	var ops []streamOp
	for i := range records {
		for auxRate > 0 && rng.Intn(int(auxRate)+1) == 0 {
			ops = aux(ops)
		}
		v := make([]uint64, len(cols))
		for c := range cols {
			v[c] = cols[c].next()
		}
		f32 := func(c int) float32 { return math.Float32frombits(uint32(v[c])) }
		records[i] = xcal.SlotKPI{
			Slot: int64(v[0]), Time: time.Duration(v[1]), Carrier: uint8(v[2]),
			RAT: xcal.RAT(v[3]), Dir: xcal.Direction(v[4]), CQI: uint8(v[5]), MCSTable: uint8(v[6]),
			MCS: uint8(v[7]), Rank: uint8(v[8]), HARQRetx: uint8(v[9]), ACK: v[10] == 1, Outage: v[11] == 1,
			RBs: uint16(v[12]), ServingCell: uint16(v[13]), REs: uint32(v[14]), TBSBits: uint32(v[15]),
			DeliveredBits: uint32(v[16]), SINRdB: f32(17), RSRPdBm: f32(18), RSRQdB: f32(19),
			PosX: f32(20), PosY: f32(21),
		}
		ops = append(ops, streamOp{kpi: i})
	}
	for auxRate > 0 && rng.Intn(int(auxRate)+1) == 0 {
		ops = aux(ops)
	}
	return records, ops
}

// writeStream replays ops into a row or columnar trace writer.
func writeStream(t *testing.T, tw xcal.TraceWriter, records []xcal.SlotKPI, ops []streamOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch {
		case op.kpi >= 0:
			err = tw.WriteKPI(&records[op.kpi])
		case op.frame == xcal.FrameMIB:
			err = tw.WriteMIB(&op.mib)
		case op.frame == xcal.FrameSIB1:
			err = tw.WriteSIB1(&op.sib1)
		case op.frame == xcal.FrameDCI:
			err = tw.WriteDCI(&op.dci)
		case op.frame == xcal.FrameEvent:
			err = tw.WriteEvent(op.event)
		default:
			err = tw.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

// sameKPI compares two records bit for bit (NaN payloads, −0 included).
func sameKPI(a, b *xcal.SlotKPI) bool {
	return bytes.Equal(a.AppendTo(nil), b.AppendTo(nil))
}

// FuzzStreamRoundTrip writes a generated KPI stream with interleaved
// signaling as a columnar trace and checks both read paths bit for bit:
// ScanBlocks → Block.Row reproduces every record in order, and
// ConvertColToRow reproduces the row trace written directly from the
// same stream, byte for byte, whose xcal.Reader replay returns every
// record and signaling frame in order. Up to three blocks, so streams
// end short of, on and past block boundaries; every column takes one of
// colModes shapes: constant, runs, full-width, common divisor, monotone,
// small range, alternating extremes, ±1 jitter and float specials.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(1), byte(0), []byte{})
	f.Add(int64(2), uint16(BlockCap), byte(64), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3})
	f.Add(int64(3), uint16(BlockCap+1), byte(3), []byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	f.Add(int64(4), uint16(3*BlockCap), byte(200), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(int64(5), uint16(BlockCap-1), byte(1), []byte{3, 3, 6, 6, 7, 7, 4, 4, 5, 5, 1, 1, 3, 6, 7, 3, 4, 6, 7, 1, 0, 3})
	f.Add(int64(6), uint16(0), byte(1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, auxRate byte, modes []byte) {
		records, ops := genStream(seed, int(n)%(3*BlockCap+1), modes, auxRate)
		var col, row bytes.Buffer
		cw, err := NewWriter(&col, testMeta())
		if err != nil {
			t.Fatal(err)
		}
		writeStream(t, cw, records, ops)
		rw, err := xcal.NewWriter(&row, testMeta())
		if err != nil {
			t.Fatal(err)
		}
		writeStream(t, rw, records, ops)

		pos := 0
		var k xcal.SlotKPI
		stats, err := ScanBlocks(context.Background(), BytesReaderAt(col.Bytes()), int64(col.Len()),
			ScanOptions{Workers: 2}, func(b *Block) error {
				for i := 0; i < b.Count; i++ {
					b.Row(i, &k)
					if pos >= len(records) || !sameKPI(&k, &records[pos]) {
						t.Fatalf("ScanBlocks record %d: got %+v", pos, k)
					}
					pos++
				}
				return nil
			})
		if err != nil {
			t.Fatalf("ScanBlocks: %v", err)
		}
		if pos != len(records) || stats.Records != uint64(len(records)) || len(stats.Skipped) != 0 {
			t.Fatalf("ScanBlocks: %d records (stats %d, %d skipped), want %d",
				pos, stats.Records, len(stats.Skipped), len(records))
		}

		var back bytes.Buffer
		if _, err := ConvertColToRow(BytesReaderAt(col.Bytes()), int64(col.Len()), &back); err != nil {
			t.Fatalf("ConvertColToRow: %v", err)
		}
		if !bytes.Equal(back.Bytes(), row.Bytes()) {
			t.Fatalf("ConvertColToRow: %d bytes differ from the %d-byte direct row trace", back.Len(), row.Len())
		}
		r, err := xcal.NewReader(&back)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.kpi < 0 && op.frame == 0 {
				continue // Flush writes no frame
			}
			ft, err := r.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			ok := false
			switch {
			case op.kpi >= 0:
				ok = ft == xcal.FrameKPI && sameKPI(&r.KPI, &records[op.kpi])
			case op.frame == xcal.FrameMIB:
				ok = ft == op.frame && r.MIB == op.mib
			case op.frame == xcal.FrameSIB1:
				ok = ft == op.frame && r.SIB1 == op.sib1
			case op.frame == xcal.FrameDCI:
				ok = ft == op.frame && r.DCI == op.dci
			case op.frame == xcal.FrameEvent:
				ok = ft == op.frame && r.Event == op.event
			}
			if !ok {
				t.Fatalf("frame %d: got type %d, want op %+v", i, ft, op)
			}
		}
		if ft, err := r.Next(); err != io.EOF {
			t.Fatalf("trailing frame %d after the stream (err %v)", ft, err)
		}
	})
}
