package xcol

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// The block encoder as it was before its sizing pass was split: one
// combined pass computes every candidate's size for every column,
// and appendPacked runs one bit accumulator for all widths. It is the
// oracle FuzzEncodeKPIBlock holds the production encoder to, byte for
// byte.

// refColStats is the one-pass sizing summary refEncodeIntCol chooses from.
type refColStats struct {
	allSame   bool
	deltaSize int // zigzag-varint per delta
	rleSize   int // (delta, run) pairs
	runs      int
	base      uint64 // unsigned minimum
	rangeV    uint64 // max - base (unsigned)
	packWidth int    // bits.Len64(rangeV), 0 when allSame
}

func refSizeIntCol[T intColumn](xs []T) refColStats {
	n := len(xs)
	first := uint64(xs[0])
	st := refColStats{allSame: true, base: first}
	st.deltaSize = uvarintLen(zigzag(first))
	st.rleSize = st.deltaSize
	maxV := first
	prev := first
	var runDelta uint64
	runLen := 0
	for i := 1; i < n; i++ {
		cur := uint64(xs[i])
		d := cur - prev
		prev = cur
		if d != 0 {
			st.allSame = false
		}
		if cur < st.base {
			st.base = cur
		}
		if cur > maxV {
			maxV = cur
		}
		st.deltaSize += uvarintLen(zigzag(d))
		if runLen > 0 && d == runDelta {
			runLen++
			continue
		}
		if runLen > 0 {
			st.rleSize += uvarintLen(zigzag(runDelta)) + uvarintLen(uint64(runLen))
			st.runs++
		}
		runDelta, runLen = d, 1
	}
	if runLen > 0 {
		st.rleSize += uvarintLen(zigzag(runDelta)) + uvarintLen(uint64(runLen))
		st.runs++
	}
	st.rangeV = maxV - st.base
	st.packWidth = bits.Len64(st.rangeV)
	return st
}

// refAppendPacked emits [base uvarint][width u8][values - base, LSB-first
// width-bit packed].
func refAppendPacked[T intColumn](dst []byte, xs []T, base uint64, width int) []byte {
	dst = binary.AppendUvarint(dst, base)
	dst = append(dst, uint8(width))
	var acc uint64
	accBits := 0
	for _, x := range xs {
		acc |= (uint64(x) - base) << accBits
		accBits += width
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// refEncodeIntCol appends the chosen encoding of xs and returns its tag.
// width is the raw byte width of T. Selection is deterministic:
// identical inputs always produce identical bytes.
func refEncodeIntCol[T intColumn](dst []byte, xs []T, width int) (uint8, []byte) {
	n := len(xs)
	st := refSizeIntCol(xs)
	if st.allSame {
		return encConst, binary.AppendUvarint(dst, zigzag(uint64(xs[0])))
	}
	rawSize := n * width

	// Decode-speed-first selection. Raw is the floor; packed must earn
	// its bit-twiddling with a 1.5x size win; RLE must both shrink the
	// column and have long runs (short runs decode at varint speed);
	// delta-varint needs a 4x win over the best so far.
	enc, size := encRaw, rawSize
	packW := roundWidth(st.packWidth)
	if st.packWidth <= maxPackWidth {
		if ps := packedSize(st.base, packW, n); ps+ps/2 <= rawSize && ps < size {
			enc, size = encPacked, ps
		}
	}
	var scale uint64 = 1
	var scaleWidth int
	if st.packWidth >= 10 {
		if g := colScale(xs, st.base); g >= 2 {
			scaleWidth = roundWidth(bits.Len64(st.rangeV / g))
			if scaleWidth <= maxPackWidth {
				ss := uvarintLen(st.base) + uvarintLen(g) + 1 + (n*scaleWidth+7)/8
				if ss+ss/2 <= rawSize && ss < size {
					enc, size, scale = encPackedScale, ss, g
				}
			}
		}
	}
	if st.runs*8 <= n && st.rleSize < size {
		enc, size = encDeltaRLE, st.rleSize
	}
	if st.deltaSize*4 < size {
		enc, size = encDelta, st.deltaSize
	}

	switch enc {
	case encPacked:
		return encPacked, refAppendPacked(dst, xs, st.base, packW)
	case encPackedScale:
		return encPackedScale, appendPackedScale(dst, xs, st.base, scale, scaleWidth)
	case encDeltaRLE:
		return encDeltaRLE, appendDeltaRLE(dst, xs)
	case encDelta:
		first := uint64(xs[0])
		dst = binary.AppendUvarint(dst, zigzag(first))
		prev := first
		for i := 1; i < n; i++ {
			cur := uint64(xs[i])
			dst = binary.AppendUvarint(dst, zigzag(cur-prev))
			prev = cur
		}
		return encDelta, dst
	default:
		return encRaw, appendRawInts(dst, xs, width)
	}
}

// refEncodeFloatCol appends a float32 column. Radio measurements hold
// steady for runs of slots, so runs of identical bit patterns are
// coded as (xor, run) pairs — decode is O(runs). High-entropy columns
// fall back to a raw copy; there is deliberately no varint-per-row
// float path.
func refEncodeFloatCol(dst []byte, xs []float32) (uint8, []byte) {
	n := len(xs)
	first := math.Float32bits(xs[0])
	allSame := true
	rleSize := uvarintLen(uint64(first))
	runs := 0
	prev := first
	var runXor uint32
	runLen := 0
	for i := 1; i < n; i++ {
		cur := math.Float32bits(xs[i])
		if cur != first {
			allSame = false
		}
		x := prev ^ cur
		prev = cur
		if runLen > 0 && x == runXor {
			runLen++
			continue
		}
		if runLen > 0 {
			rleSize += uvarintLen(uint64(runXor)) + uvarintLen(uint64(runLen))
			runs++
		}
		runXor, runLen = x, 1
	}
	if runLen > 0 {
		rleSize += uvarintLen(uint64(runXor)) + uvarintLen(uint64(runLen))
		runs++
	}
	if allSame {
		return encConst, binary.LittleEndian.AppendUint32(dst, first)
	}
	if runs*8 <= n && rleSize < 4*n {
		dst = binary.AppendUvarint(dst, uint64(first))
		prev = first
		runLen = 0
		for i := 1; i < n; i++ {
			cur := math.Float32bits(xs[i])
			x := prev ^ cur
			prev = cur
			if runLen > 0 && x == runXor {
				runLen++
				continue
			}
			if runLen > 0 {
				dst = binary.AppendUvarint(dst, uint64(runXor))
				dst = binary.AppendUvarint(dst, uint64(runLen))
			}
			runXor, runLen = x, 1
		}
		dst = binary.AppendUvarint(dst, uint64(runXor))
		dst = binary.AppendUvarint(dst, uint64(runLen))
		return encXorRLE, dst
	}
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return encRaw, dst
}

// referenceEncodeKPIBlock appends the canonical columnar payload of b: the
// column count, then every column in ID order as
// [id u8][enc u8][len uvarint][data]. The encoding is deterministic —
// identical records always produce identical bytes.
func referenceEncodeKPIBlock(dst []byte, b *Block) []byte {
	var e blockEncoder
	dst = append(dst, uint8(numColumns))
	var enc uint8
	emit := func(dst []byte, id int) []byte { return e.col(dst, id, enc, e.scratch) }

	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.Slot, 8)
	dst = emit(dst, ColSlot)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.Time, 8)
	dst = emit(dst, ColTime)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.Carrier, 1)
	dst = emit(dst, ColCarrier)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.RAT, 1)
	dst = emit(dst, ColRAT)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.Dir, 1)
	dst = emit(dst, ColDir)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.CQI, 1)
	dst = emit(dst, ColCQI)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.MCSTable, 1)
	dst = emit(dst, ColMCSTable)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.MCS, 1)
	dst = emit(dst, ColMCS)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.Rank, 1)
	dst = emit(dst, ColRank)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.HARQRetx, 1)
	dst = emit(dst, ColHARQRetx)
	enc, e.scratch = encodeBoolCol(e.scratch[:0], b.ACK)
	dst = emit(dst, ColACK)
	enc, e.scratch = encodeBoolCol(e.scratch[:0], b.Outage)
	dst = emit(dst, ColOutage)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.RBs, 2)
	dst = emit(dst, ColRBs)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.ServingCell, 2)
	dst = emit(dst, ColServingCell)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.REs, 4)
	dst = emit(dst, ColREs)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.TBSBits, 4)
	dst = emit(dst, ColTBSBits)
	enc, e.scratch = refEncodeIntCol(e.scratch[:0], b.DeliveredBits, 4)
	dst = emit(dst, ColDeliveredBits)
	enc, e.scratch = refEncodeFloatCol(e.scratch[:0], b.SINRdB)
	dst = emit(dst, ColSINRdB)
	enc, e.scratch = refEncodeFloatCol(e.scratch[:0], b.RSRPdBm)
	dst = emit(dst, ColRSRPdBm)
	enc, e.scratch = refEncodeFloatCol(e.scratch[:0], b.RSRQdB)
	dst = emit(dst, ColRSRQdB)
	enc, e.scratch = refEncodeFloatCol(e.scratch[:0], b.PosX)
	dst = emit(dst, ColPosX)
	enc, e.scratch = refEncodeFloatCol(e.scratch[:0], b.PosY)
	dst = emit(dst, ColPosY)
	return dst
}

// FuzzEncodeKPIBlock encodes generated blocks with the production
// encoder and with referenceEncodeKPIBlock and requires identical bytes.
// Records come from genStream's column shapes; hold > 1 repeats each
// record hold times, which moves the run count across RLE's n/8 limit.
// One encoder encodes the block twice, so a dirty scratch buffer shows.
func FuzzEncodeKPIBlock(f *testing.F) {
	f.Add(int64(1), uint16(1), byte(0), []byte{})
	f.Add(int64(2), uint16(BlockCap), byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3})
	f.Add(int64(3), uint16(BlockCap-1), byte(16), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(int64(4), uint16(777), byte(15), []byte{4, 7, 5, 5, 5, 5, 5, 5, 5, 5, 1, 1, 4, 7, 4, 7, 3, 8, 7, 1, 4, 7})
	f.Add(int64(5), uint16(64), byte(17), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(int64(6), uint16(BlockCap), byte(3), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 3, 3, 3, 3, 3, 6, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, hold byte, modes []byte) {
		records, _ := genStream(seed, 1+int(n)%BlockCap, modes, 0)
		var b Block
		for i := range records {
			if hold > 1 {
				b.appendKPI(&records[i-i%int(hold)])
			} else {
				b.appendKPI(&records[i])
			}
		}
		want := referenceEncodeKPIBlock(nil, &b)
		var e blockEncoder
		for pass := 0; pass < 2; pass++ {
			got := e.encodeKPIBlock(nil, &b)
			if bytes.Equal(got, want) {
				continue
			}
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("pass %d: %d-record block encodes to %d bytes, reference %d; first difference at byte %d",
				pass, b.Count, len(got), len(want), at)
		}
	})
}
