package xcol

import (
	"bytes"
	"io"
	"testing"

	"github.com/midband5g/midband/internal/xcal"
)

// benchRecords is sized so a pass covers many blocks but the encoded
// traces stay cache-resident enough to measure decode, not disk.
const benchRecords = 32 * BlockCap

func benchStream(b *testing.B) []xcal.SlotKPI {
	b.Helper()
	return genKPIsB(benchRecords, 2024)
}

// genKPIsB mirrors the test generator without a *testing.T.
func genKPIsB(n int, seed int64) []xcal.SlotKPI {
	return genKPIs(n, seed)
}

func encodeCol(b *testing.B, records []xcal.SlotKPI) []byte {
	b.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		b.Fatal(err)
	}
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func encodeRow(b *testing.B, records []xcal.SlotKPI) []byte {
	b.Helper()
	var buf bytes.Buffer
	w, err := xcal.NewWriter(&buf, testMeta())
	if err != nil {
		b.Fatal(err)
	}
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBlockScan measures decoding the same KPI stream three ways:
// the full columnar decode, the goodput-projection decode (what the
// figure pipeline reads) and the row xcal.Reader baseline. ns/op is
// per record. The benchgate baseline pins the columnar variants; the
// acceptance bar is Goodput ≥ 10x faster than RowReader with 0
// allocs/op steady-state — the projection is what the analysis path
// actually decodes, and it is where columnar layout pays: a row reader
// must touch all 64 bytes of every record regardless of projection.
func BenchmarkBlockScan(b *testing.B) {
	records := benchStream(b)
	col := encodeCol(b, records)
	row := encodeRow(b, records)

	scan := func(b *testing.B, proj ColumnSet) {
		s, err := NewScanner(BytesReaderAt(col), int64(len(col)))
		if err != nil {
			b.Fatal(err)
		}
		s.SetProjection(proj)
		var sink uint64
		// Warm pass sizes the decode buffers.
		for {
			blk, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			sink += uint64(blk.Count)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			n := 0
			for {
				blk, err := s.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				n += blk.Count
				if len(blk.DeliveredBits) > 0 {
					sink += uint64(blk.DeliveredBits[blk.Count-1])
				}
			}
			if n != benchRecords {
				b.Fatalf("scanned %d records, want %d", n, benchRecords)
			}
		}
		b.StopTimer()
		if sink == 0 {
			b.Fatal("empty sink")
		}
		perRecord(b)
	}

	b.Run("Full", func(b *testing.B) { scan(b, 0) })
	b.Run("Goodput", func(b *testing.B) { scan(b, GoodputColumns) })
	b.Run("RowReader", func(b *testing.B) {
		var sink uint64
		read := func() {
			r, err := xcal.NewReader(bytes.NewReader(row))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				t, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if t == xcal.FrameKPI {
					n++
					sink += uint64(r.KPI.DeliveredBits)
				}
			}
			if n != benchRecords {
				b.Fatalf("read %d records, want %d", n, benchRecords)
			}
		}
		// An untimed read first keeps first-use initialisation out of
		// allocs/op, which then reads the same at any -benchtime.
		read()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
		b.StopTimer()
		if sink == 0 {
			b.Fatal("empty sink")
		}
		perRecord(b)
	})
}

// perRecord reports ns/record so the three variants compare directly.
func perRecord(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRecords, "ns/record")
}

// BenchmarkBlockWrite measures the streaming encode path end to end
// (column build + encode + CRC + framing), per record, in steady state.
// Two untimed passes first grow the writer's block and payload buffers
// and leave the block index more than a pass of spare capacity, so its
// later doublings come less than once per pass and allocs/op reads the
// same at any -benchtime.
func BenchmarkBlockWrite(b *testing.B) {
	records := benchStream(b)
	w, err := NewWriter(io.Discard, testMeta())
	if err != nil {
		b.Fatal(err)
	}
	pass := func() {
		for j := range records {
			if err := w.WriteKPI(&records[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	perRecord(b)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
