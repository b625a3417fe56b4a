package xcol

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"github.com/midband5g/midband/internal/xcal"
)

// encodeTrace builds a columnar trace of n records (plus a couple of
// aux frames) for corruption tests.
func encodeTrace(t *testing.T, n int) ([]byte, []xcal.SlotKPI) {
	t.Helper()
	records := genKPIs(n, 7)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	mib := xcal.MIB{SFN: 1, SCSkHz: 30}
	if err := w.WriteMIB(&mib); err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), records
}

// scanAll drains a scanner, returning the materialized rows.
func drainScanner(t *testing.T, s *Scanner) []xcal.SlotKPI {
	t.Helper()
	var rows []xcal.SlotKPI
	for {
		blk, err := s.Next()
		if err != nil {
			break
		}
		rows = blk.AppendRows(rows)
	}
	return rows
}

// TestCorruptBlockSkippedWithProvenance flips one payload byte in the
// middle KPI block: the scan must skip exactly that block, record its
// offset and kind, and decode every other block intact.
func TestCorruptBlockSkippedWithProvenance(t *testing.T) {
	trace, records := encodeTrace(t, 3*BlockCap)
	s, err := NewScanner(BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	var kpi []IndexEntry
	for _, e := range s.Index() {
		if e.Kind == kindKPI {
			kpi = append(kpi, e)
		}
	}
	if len(kpi) != 3 {
		t.Fatalf("got %d KPI blocks, want 3", len(kpi))
	}
	victim := kpi[1]
	mut := append([]byte(nil), trace...)
	mut[victim.Offset+headerSize+uint64(victim.Len)/2] ^= 0x40

	s2, err := NewScanner(BytesReaderAt(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	rows := drainScanner(t, s2)
	want := append(append([]xcal.SlotKPI(nil), records[:BlockCap]...), records[2*BlockCap:]...)
	if len(rows) != len(want) {
		t.Fatalf("scanned %d rows, want %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Fatalf("row %d diverged after skip: %+v vs %+v", i, rows[i], want[i])
		}
	}
	corrupt := s2.Corrupt()
	if len(corrupt) != 1 {
		t.Fatalf("got %d corrupt blocks, want 1: %v", len(corrupt), corrupt)
	}
	be := corrupt[0]
	if be.Offset != victim.Offset || be.Kind != kindKPI {
		t.Fatalf("provenance %+v does not point at the corrupted block (offset %d)", be, victim.Offset)
	}
	if !strings.Contains(be.Err.Error(), "CRC") {
		t.Fatalf("skip reason %q does not mention the CRC", be.Err)
	}
}

// TestTruncationSweep scans every prefix length of a small trace: a
// truncated file may fail to open or yield fewer records, but it must
// never panic and never fabricate rows.
func TestTruncationSweep(t *testing.T) {
	trace, records := encodeTrace(t, BlockCap+17)
	for cut := 0; cut <= len(trace); cut++ {
		prefix := trace[:cut]
		s, err := NewScanner(BytesReaderAt(prefix), int64(cut))
		if err != nil {
			continue // unopenable prefix is a valid outcome
		}
		rows := drainScanner(t, s)
		if len(rows) > len(records) {
			t.Fatalf("cut %d: scanned %d rows from a %d-record trace", cut, len(rows), len(records))
		}
		for i := range rows {
			if rows[i] != records[i] {
				t.Fatalf("cut %d: row %d fabricated: %+v vs %+v", cut, i, rows[i], records[i])
			}
		}
	}
}

// TestBadTailSequentialParity damages the tail magic: the scanner must
// fall back to the sequential walk and still produce every record.
func TestBadTailSequentialParity(t *testing.T) {
	trace, records := encodeTrace(t, 2*BlockCap+5)
	mut := append([]byte(nil), trace...)
	mut[len(mut)-1] ^= 0xff // last tailMagic byte

	s, err := NewScanner(BytesReaderAt(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Sequential() {
		t.Fatal("scanner did not fall back to sequential mode")
	}
	if s.IndexErr() == nil {
		t.Fatal("sequential scanner reports no index error")
	}
	rows := drainScanner(t, s)
	if len(rows) != len(records) {
		t.Fatalf("sequential scan got %d rows, want %d", len(rows), len(records))
	}
	for i := range rows {
		if rows[i] != records[i] {
			t.Fatalf("row %d diverged in sequential mode", i)
		}
	}
	// Aux frames must replay in sequential mode too.
	aux := 0
	err = s.AuxFrames(func(ft xcal.FrameType, pos uint64, payload []byte) error {
		aux++
		return nil
	})
	if err != nil || aux != 1 {
		t.Fatalf("sequential aux replay: %d frames, err %v; want 1, nil", aux, err)
	}
}

// TestCorruptIndexFallsBack damages the index payload (tail intact):
// the CRC check must reject it and the sequential walk must match the
// indexed scan of the pristine trace.
func TestCorruptIndexFallsBack(t *testing.T) {
	trace, records := encodeTrace(t, BlockCap+100)
	s, err := NewScanner(BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Sequential() {
		t.Fatal("pristine trace opened in sequential mode")
	}
	// The index block is the last block before the tail; damage a byte
	// well inside its payload.
	mut := append([]byte(nil), trace...)
	mut[len(mut)-tailSize-8] ^= 0x01

	s2, err := NewScanner(BytesReaderAt(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Sequential() {
		t.Fatal("scanner accepted a corrupt index")
	}
	rows := drainScanner(t, s2)
	if len(rows) != len(records) {
		t.Fatalf("fallback scan got %d rows, want %d", len(rows), len(records))
	}
}

// overflowIndexFooter builds an index payload + tail whose varint entry
// count n is chosen so n*indexEntrySize wraps modulo 2^64 to exactly the
// remaining payload length: a size check that multiplies instead of
// dividing accepts it and then panics in make([]IndexEntry, 0, n). The
// tail points the index at file offset off with a valid CRC.
func overflowIndexFooter(off uint64) []byte {
	// indexEntrySize is odd, so it is invertible mod 2^64; Newton
	// iteration converges to the inverse in 6 steps.
	inv := uint64(indexEntrySize)
	for i := 0; i < 6; i++ {
		inv *= 2 - uint64(indexEntrySize)*inv
	}
	const rem = 10 // not a multiple of indexEntrySize
	payload := binary.AppendUvarint(nil, rem*inv)
	payload = append(payload, make([]byte, rem)...)
	var tail [tailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], off)
	binary.LittleEndian.PutUint32(tail[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(tail[12:], checksum(payload))
	copy(tail[16:], tailMagic[:])
	return append(payload, tail[:]...)
}

// TestIndexCountOverflowRejected opens a file whose footer carries the
// overflowing entry count: loadIndex must reject it as malformed (no
// panic), leaving NewScanner to fail cleanly on the missing meta block.
func TestIndexCountOverflowRejected(t *testing.T) {
	file := append([]byte(nil), Magic[:]...)
	file = binary.LittleEndian.AppendUint16(file, Version)
	file = append(file, overflowIndexFooter(fileHeaderSize)...)

	if _, err := NewScanner(BytesReaderAt(file), int64(len(file))); err == nil {
		t.Fatal("scanner accepted a file with an overflowing index count")
	}
}

// TestSequentialFirstIndexParityAfterCRCSkip corrupts one KPI block's
// payload (CRC mismatch) and scans the trace both ways: the sequential
// walk must report the same FirstIndex for every surviving block as the
// indexed scan — a skipped block's records still advance the stream
// position.
func TestSequentialFirstIndexParityAfterCRCSkip(t *testing.T) {
	trace, _ := encodeTrace(t, 3*BlockCap)
	s, err := NewScanner(BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	var kpi []IndexEntry
	for _, e := range s.Index() {
		if e.Kind == kindKPI {
			kpi = append(kpi, e)
		}
	}
	mut := append([]byte(nil), trace...)
	mut[kpi[1].Offset+headerSize] ^= 0x10

	firsts := func(trace []byte) []uint64 {
		s, err := NewScanner(BytesReaderAt(trace), int64(len(trace)))
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for {
			blk, err := s.Next()
			if err != nil {
				break
			}
			out = append(out, blk.FirstIndex)
		}
		if len(s.Corrupt()) != 1 {
			t.Fatalf("got %d corrupt blocks, want 1", len(s.Corrupt()))
		}
		return out
	}

	indexed := firsts(mut)
	seq := append([]byte(nil), mut...)
	seq[len(seq)-1] ^= 0xff // break tailMagic → sequential walk
	sequential := firsts(seq)

	if len(indexed) != 2 || indexed[1] != 2*BlockCap {
		t.Fatalf("indexed FirstIndex = %v, want [0 %d]", indexed, 2*BlockCap)
	}
	if len(sequential) != len(indexed) {
		t.Fatalf("sequential scan returned %d blocks, indexed %d", len(sequential), len(indexed))
	}
	for i := range indexed {
		if sequential[i] != indexed[i] {
			t.Fatalf("sequential FirstIndex %v diverges from indexed %v", sequential, indexed)
		}
	}
}

// TestCorruptMetaRejected damages the metadata payload: open must fail
// with an error, not a panic and not a half-initialized scanner.
func TestCorruptMetaRejected(t *testing.T) {
	trace, _ := encodeTrace(t, 10)
	mut := append([]byte(nil), trace...)
	mut[fileHeaderSize+headerSize] ^= 0x80 // first byte of meta JSON

	if _, err := NewScanner(BytesReaderAt(mut), int64(len(mut))); err == nil {
		t.Fatal("scanner accepted a trace with corrupt metadata")
	}
}

// TestRandomCorruptionNeverPanics flips random bytes all over the file
// and checks the full read surface stays panic-free.
func TestRandomCorruptionNeverPanics(t *testing.T) {
	trace, _ := encodeTrace(t, BlockCap/2)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), trace...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		s, err := NewScanner(BytesReaderAt(mut), int64(len(mut)))
		if err != nil {
			continue
		}
		drainScanner(t, s)
		_ = s.AuxFrames(func(xcal.FrameType, uint64, []byte) error { return nil })
	}
}

// appendBits packs vals at an arbitrary bit width, LSB-first — the
// layout decodePacked expects — so tests can exercise widths the
// encoder itself no longer produces (it rounds up to byte-aligned
// lanes).
func appendBits(dst []byte, vals []uint64, width int) []byte {
	acc, nbits := uint64(0), 0
	for _, v := range vals {
		acc |= v << nbits
		nbits += width
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// TestDecodePackedOddWidths hand-builds packed columns at widths the
// encoder never emits (3, 5, 7, 11, 13, 27): foreign writers may, and
// the per-value fallback path must decode them exactly.
func TestDecodePackedOddWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{3, 5, 7, 11, 13, 27} {
		n := 101
		base := uint64(rng.Intn(1000))
		vals := make([]uint64, n)
		want := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & (1<<width - 1)
			want[i] = int64(base + vals[i])
		}
		payload := binary.AppendUvarint(nil, base)
		payload = append(payload, byte(width))
		payload = appendBits(payload, vals, width)

		out := make([]int64, n)
		if err := decodePacked(payload, out); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("width %d: row %d = %d, want %d", width, i, out[i], want[i])
			}
		}
	}
}

// TestDecodePackedScaleOddWidths does the same for the scaled variant.
func TestDecodePackedScaleOddWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, width := range []int{3, 9, 17, 21} {
		n := 67
		base, scale := uint64(rng.Intn(500)), uint64(2+rng.Intn(100))
		vals := make([]uint64, n)
		want := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint64() & (1<<width - 1)
			want[i] = uint32(base + scale*vals[i])
		}
		payload := binary.AppendUvarint(nil, base)
		payload = binary.AppendUvarint(payload, scale)
		payload = append(payload, byte(width))
		payload = appendBits(payload, vals, width)

		out := make([]uint32, n)
		if err := decodePackedMul(payload, out); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("width %d: row %d = %d, want %d", width, i, out[i], want[i])
			}
		}
	}
}

// TestPackedByteColumnNear255 round-trips byte columns whose base plus
// range reaches 255, at each sub-byte lane width, both where a full lane
// would still fit in a byte and where it could carry past 255 (base 243,
// range 12 in 4-bit lanes), and checks that a packed value past 255 is
// still rejected.
func TestPackedByteColumnNear255(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{{254, 255}, {253, 255}, {252, 255}, {243, 255}, {240, 255}} {
		xs := make([]uint8, 37)
		for i := range xs {
			xs[i] = uint8(c.lo + i%(c.hi-c.lo+1))
		}
		enc, payload := encodeIntCol(nil, xs, 1)
		if enc != encPacked {
			t.Fatalf("[%d, %d]: encoding %d, want packed", c.lo, c.hi, enc)
		}
		out := make([]uint8, len(xs))
		if err := decodeU8Col(payload, enc, out); err != nil {
			t.Fatalf("[%d, %d]: %v", c.lo, c.hi, err)
		}
		if !bytes.Equal(out, xs) {
			t.Fatalf("[%d, %d]: decoded %v, want %v", c.lo, c.hi, out, xs)
		}
	}
	// base 243, 4-bit lanes, second value 13: 256.
	payload := binary.AppendUvarint(nil, 243)
	payload = append(payload, 4, 0xd0)
	if err := decodeU8Col(payload, encPacked, make([]uint8, 2)); err == nil {
		t.Fatal("value 256 in a packed byte column decoded without error")
	}
}
