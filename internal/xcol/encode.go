package xcol

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Column codecs. Encoders are decode-speed-first: they pick the
// cheapest representation among those that decode in tight loops
// (const fill, run fills, bit-unpack, raw copy) and only fall back to
// varint-per-row delta coding when it shrinks the column by 4x —
// a varint decode per row is exactly the per-record cost the columnar
// format exists to escape. Decoders are strict: every byte of a column
// payload must be consumed and every run must land exactly on the row
// count, so corruption is detected rather than smeared.
//
// All delta arithmetic is mod 2^64: encode computes cur-prev on the
// uint64 bit patterns and decode adds the (un-zigzagged) delta back
// with the same wraparound, so even adversarial extreme values round
// trip losslessly.

func zigzag(d uint64) uint64 {
	v := int64(d)
	return uint64(v<<1) ^ uint64(v>>63)
}

func unzigzag(z uint64) uint64 {
	return (z >> 1) ^ (^(z & 1) + 1)
}

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// uvarint decodes at pos; it returns the next position, or -1 on
// truncated or overflowing input. The single-byte case is first so the
// common path is branch-predictable.
func uvarint(b []byte, pos int) (uint64, int) {
	if pos >= 0 && pos < len(b) && b[pos] < 0x80 {
		return uint64(b[pos]), pos + 1
	}
	if pos < 0 {
		return 0, -1
	}
	var v uint64
	var shift uint
	for i := pos; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if shift == 63 && c > 1 {
				return 0, -1 // overflows uint64
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, -1
		}
	}
	return 0, -1
}

type intColumn interface {
	~int64 | ~uint8 | ~uint16 | ~uint32
}

// appendRawInts emits fixed-width little-endian values.
func appendRawInts[T intColumn](dst []byte, xs []T, width int) []byte {
	switch width {
	case 1:
		for _, x := range xs {
			dst = append(dst, byte(x))
		}
	case 2:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(x))
		}
	case 4:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	default:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	}
	return dst
}

// maxPackWidth caps the frame-of-reference bit width: the 39-bit load
// window of the unpack fast path (7 shift + 32 value bits) must fit a
// 64-bit load.
const maxPackWidth = 32

// colStats is the sizing summary encodeIntCol chooses from.
type colStats struct {
	base      uint64 // unsigned minimum
	rangeV    uint64 // max - base (unsigned)
	packWidth int    // bits.Len64(rangeV)
	rleSize   int    // (delta, run) pairs; meaningful only when rleOK
	rleOK     bool   // runs·8 ≤ n, the long-run condition RLE must meet
	deltaSize int    // zigzag-varint per delta; 8-byte columns only
}

// sizeIntCol sizes the candidates of a column that is not all-same. Each
// pass does only what can still change the choice: a column of width ≤ 4
// bytes never sizes delta-varint, because every varint takes at least a
// byte, so 4·deltaSize ≥ 4n ≥ n·width ≥ the best size, and delta needs a
// 4× win; the RLE pass stops once runs·8 > n, past which RLE is never
// chosen.
func sizeIntCol[T intColumn](xs []T, base, maxV uint64, width int) colStats {
	st := colStats{base: base, rangeV: maxV - base}
	st.packWidth = bits.Len64(st.rangeV)
	st.rleSize, st.rleOK = rleSizeInt(xs)
	if width == 8 {
		prev := uint64(xs[0])
		st.deltaSize = uvarintLen(zigzag(prev))
		for _, x := range xs[1:] {
			cur := uint64(x)
			st.deltaSize += uvarintLen(zigzag(cur - prev))
			prev = cur
		}
	}
	return st
}

// rleSizeInt returns the delta-RLE size of xs, or false as soon as its
// runs exceed len(xs)/8.
func rleSizeInt[T intColumn](xs []T) (int, bool) {
	maxRuns := len(xs) / 8
	prev := uint64(xs[0])
	size := uvarintLen(zigzag(prev))
	runs := 0
	var runDelta uint64
	runLen := 0
	for _, x := range xs[1:] {
		cur := uint64(x)
		d := cur - prev
		prev = cur
		if runLen > 0 && d == runDelta {
			runLen++
			continue
		}
		if runLen > 0 {
			if runs++; runs > maxRuns {
				return 0, false
			}
			size += uvarintLen(zigzag(runDelta)) + uvarintLen(uint64(runLen))
		}
		runDelta, runLen = d, 1
	}
	if runLen > 0 {
		runs++
		size += uvarintLen(zigzag(runDelta)) + uvarintLen(uint64(runLen))
	}
	return size, runs <= maxRuns
}

func gcdU64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// colScale returns the GCD of the offsets from base, or 1 when no
// common factor survives. Only called when the plain pack width is
// wide enough that a factor could pay for its header; the divisibility
// pre-check keeps the pass to one division per value once the factor
// stabilizes, and the scan exits as soon as it collapses to 1.
func colScale[T intColumn](xs []T, base uint64) uint64 {
	var g uint64
	for _, x := range xs {
		e := uint64(x) - base
		if g != 0 && e%g == 0 {
			continue
		}
		g = gcdU64(g, e)
		if g == 1 {
			return 1
		}
	}
	if g == 0 {
		return 1
	}
	return g
}

// roundWidth rounds a bit width up to the nearest lane width the
// decoder unpacks without variable shifts: sub-byte powers of two or
// whole little-endian lanes. The few extra bits per value buy a decode
// loop that is a plain copy-and-add — the decode-speed-first trade.
func roundWidth(w int) int {
	switch {
	case w <= 1:
		return 1
	case w <= 2:
		return 2
	case w <= 4:
		return 4
	case w <= 8:
		return 8
	case w <= 16:
		return 16
	default:
		return 32
	}
}

func packedSize(base uint64, width, n int) int {
	return uvarintLen(base) + 1 + (n*width+7)/8
}

// appendPacked emits [base uvarint][width u8][values - base, LSB-first
// width-bit packed], one loop per lane width roundWidth yields.
func appendPacked[T intColumn](dst []byte, xs []T, base uint64, width int) []byte {
	dst = binary.AppendUvarint(dst, base)
	dst = append(dst, uint8(width))
	switch width {
	case 8:
		for _, x := range xs {
			dst = append(dst, byte(uint64(x)-base))
		}
	case 16:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(uint64(x)-base))
		}
	case 32:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(uint64(x)-base))
		}
	default: // 1, 2 or 4 bits: 8/width values per byte
		var acc byte
		shift := 0
		for _, x := range xs {
			acc |= byte(uint64(x)-base) << shift
			if shift += width; shift == 8 {
				dst = append(dst, acc)
				acc, shift = 0, 0
			}
		}
		if shift > 0 {
			dst = append(dst, acc)
		}
	}
	return dst
}

// appendPackedScale emits [base uvarint][scale uvarint][width u8]
// [(values - base) / scale, LSB-first width-bit packed].
func appendPackedScale[T intColumn](dst []byte, xs []T, base, scale uint64, width int) []byte {
	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, scale)
	dst = append(dst, uint8(width))
	var acc uint64
	accBits := 0
	for _, x := range xs {
		acc |= (uint64(x) - base) / scale << accBits
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

func appendDeltaRLE[T intColumn](dst []byte, xs []T) []byte {
	first := uint64(xs[0])
	dst = binary.AppendUvarint(dst, zigzag(first))
	prev := first
	var runDelta uint64
	runLen := 0
	for i := 1; i < len(xs); i++ {
		cur := uint64(xs[i])
		d := cur - prev
		prev = cur
		if runLen > 0 && d == runDelta {
			runLen++
			continue
		}
		if runLen > 0 {
			dst = binary.AppendUvarint(dst, zigzag(runDelta))
			dst = binary.AppendUvarint(dst, uint64(runLen))
		}
		runDelta, runLen = d, 1
	}
	if runLen > 0 {
		dst = binary.AppendUvarint(dst, zigzag(runDelta))
		dst = binary.AppendUvarint(dst, uint64(runLen))
	}
	return dst
}

// encodeIntCol appends the chosen encoding of xs and returns its tag.
// width is the raw byte width of T. Selection is deterministic:
// identical inputs always produce identical bytes.
func encodeIntCol[T intColumn](dst []byte, xs []T, width int) (uint8, []byte) {
	n := len(xs)
	minV, maxV := uint64(xs[0]), uint64(xs[0])
	for _, x := range xs[1:] {
		minV = min(minV, uint64(x))
		maxV = max(maxV, uint64(x))
	}
	if minV == maxV {
		return encConst, binary.AppendUvarint(dst, zigzag(minV))
	}
	st := sizeIntCol(xs, minV, maxV, width)
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
	if st.rleOK && st.rleSize < size {
		enc, size = encDeltaRLE, st.rleSize
	}
	if width == 8 && st.deltaSize*4 < size {
		enc, size = encDelta, st.deltaSize
	}

	switch enc {
	case encPacked:
		return encPacked, appendPacked(dst, xs, st.base, packW)
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

// fill sets every element of out to v in O(log n) memmoves — much
// faster than an element loop for the const and zero-run fills that
// dominate well-behaved traces.
func fill[T any](out []T, v T) {
	if len(out) == 0 {
		return
	}
	out[0] = v
	for f := 1; f < len(out); f *= 2 {
		copy(out[f:], out[:f])
	}
}

// decodePacked unpacks len(out) width-bit values. Byte-aligned widths
// get dedicated copy loops; sub-byte widths unpack several values per
// byte; the rest run a bit-reader refilled 32 bits at a time. No load
// ever crosses the end of data.
func decodePacked[T intColumn](data []byte, out []T) error {
	base, pos := uvarint(data, 0)
	if pos < 0 || pos >= len(data) {
		return fmt.Errorf("packed column: truncated header")
	}
	width := int(data[pos])
	pos++
	if width < 1 || width > maxPackWidth {
		return fmt.Errorf("packed column: bad width %d", width)
	}
	n := len(out)
	if len(data)-pos != (n*width+7)/8 {
		return fmt.Errorf("packed column: %d payload bytes for %d rows of width %d", len(data)-pos, n, width)
	}
	p := data[pos:]
	switch width {
	case 1:
		i := 0
		for ; i+8 <= n; i += 8 {
			b := p[i>>3]
			out[i] = T(base + uint64(b&1))
			out[i+1] = T(base + uint64(b>>1&1))
			out[i+2] = T(base + uint64(b>>2&1))
			out[i+3] = T(base + uint64(b>>3&1))
			out[i+4] = T(base + uint64(b>>4&1))
			out[i+5] = T(base + uint64(b>>5&1))
			out[i+6] = T(base + uint64(b>>6&1))
			out[i+7] = T(base + uint64(b>>7&1))
		}
		for ; i < n; i++ {
			out[i] = T(base + uint64(p[i>>3]>>(i&7)&1))
		}
	case 2:
		i := 0
		for ; i+4 <= n; i += 4 {
			b := p[i>>2]
			out[i] = T(base + uint64(b&3))
			out[i+1] = T(base + uint64(b>>2&3))
			out[i+2] = T(base + uint64(b>>4&3))
			out[i+3] = T(base + uint64(b>>6&3))
		}
		for ; i < n; i++ {
			out[i] = T(base + uint64(p[i>>2]>>(2*(i&3))&3))
		}
	case 4:
		i := 0
		for ; i+2 <= n; i += 2 {
			b := p[i>>1]
			out[i] = T(base + uint64(b&15))
			out[i+1] = T(base + uint64(b>>4))
		}
		if i < n {
			out[i] = T(base + uint64(p[i>>1]&15))
		}
	case 8:
		i := 0
		for ; i+8 <= n; i += 8 {
			v := binary.LittleEndian.Uint64(p[i:])
			out[i] = T(base + (v & 0xff))
			out[i+1] = T(base + (v >> 8 & 0xff))
			out[i+2] = T(base + (v >> 16 & 0xff))
			out[i+3] = T(base + (v >> 24 & 0xff))
			out[i+4] = T(base + (v >> 32 & 0xff))
			out[i+5] = T(base + (v >> 40 & 0xff))
			out[i+6] = T(base + (v >> 48 & 0xff))
			out[i+7] = T(base + (v >> 56))
		}
		for ; i < n; i++ {
			out[i] = T(base + uint64(p[i]))
		}
	case 16:
		i := 0
		for ; i+4 <= n; i += 4 {
			v := binary.LittleEndian.Uint64(p[2*i:])
			out[i] = T(base + (v & 0xffff))
			out[i+1] = T(base + (v >> 16 & 0xffff))
			out[i+2] = T(base + (v >> 32 & 0xffff))
			out[i+3] = T(base + (v >> 48))
		}
		for ; i < n; i++ {
			out[i] = T(base + uint64(binary.LittleEndian.Uint16(p[2*i:])))
		}
	case 32:
		i := 0
		for ; i+2 <= n; i += 2 {
			v := binary.LittleEndian.Uint64(p[4*i:])
			out[i] = T(base + (v & 0xffffffff))
			out[i+1] = T(base + (v >> 32))
		}
		if i < n {
			out[i] = T(base + uint64(binary.LittleEndian.Uint32(p[4*i:])))
		}
	default:
		// The encoder rounds widths to the aligned lanes above, so this
		// path only sees foreign or corrupt input. One value per 64-bit
		// window load, byte-accumulated near the end of the payload so
		// no load crosses it.
		mask := uint64(1)<<width - 1
		bit := 0
		for i := range out {
			off := bit >> 3
			var v uint64
			if off+8 <= len(p) {
				v = binary.LittleEndian.Uint64(p[off:])
			} else {
				for b := 0; b < 8 && off+b < len(p); b++ {
					v |= uint64(p[off+b]) << (8 * b)
				}
			}
			out[i] = T(base + (v>>(bit&7))&mask)
			bit += width
		}
	}
	return nil
}

// decodePackedMul is decodePacked for scaled columns: each field is
// multiplied by the common factor before the base is added back. All
// arithmetic is mod 2^64, matching the encoder.
func decodePackedMul[T intColumn](data []byte, out []T) error {
	base, pos := uvarint(data, 0)
	if pos < 0 {
		return fmt.Errorf("scaled column: truncated header")
	}
	scale, pos := uvarint(data, pos)
	if pos < 0 || pos >= len(data) {
		return fmt.Errorf("scaled column: truncated header")
	}
	if scale < 2 {
		return fmt.Errorf("scaled column: scale %d below 2", scale)
	}
	width := int(data[pos])
	pos++
	if width < 1 || width > maxPackWidth {
		return fmt.Errorf("scaled column: bad width %d", width)
	}
	n := len(out)
	if len(data)-pos != (n*width+7)/8 {
		return fmt.Errorf("scaled column: %d payload bytes for %d rows of width %d", len(data)-pos, n, width)
	}
	p := data[pos:]
	switch width {
	case 8:
		i := 0
		for ; i+8 <= n; i += 8 {
			v := binary.LittleEndian.Uint64(p[i:])
			out[i] = T(base + scale*(v&0xff))
			out[i+1] = T(base + scale*(v>>8&0xff))
			out[i+2] = T(base + scale*(v>>16&0xff))
			out[i+3] = T(base + scale*(v>>24&0xff))
			out[i+4] = T(base + scale*(v>>32&0xff))
			out[i+5] = T(base + scale*(v>>40&0xff))
			out[i+6] = T(base + scale*(v>>48&0xff))
			out[i+7] = T(base + scale*(v>>56))
		}
		for ; i < n; i++ {
			out[i] = T(base + scale*uint64(p[i]))
		}
	case 16:
		i := 0
		for ; i+4 <= n; i += 4 {
			v := binary.LittleEndian.Uint64(p[2*i:])
			out[i] = T(base + scale*(v&0xffff))
			out[i+1] = T(base + scale*(v>>16&0xffff))
			out[i+2] = T(base + scale*(v>>32&0xffff))
			out[i+3] = T(base + scale*(v>>48))
		}
		for ; i < n; i++ {
			out[i] = T(base + scale*uint64(binary.LittleEndian.Uint16(p[2*i:])))
		}
	case 32:
		i := 0
		for ; i+2 <= n; i += 2 {
			v := binary.LittleEndian.Uint64(p[4*i:])
			out[i] = T(base + scale*(v&0xffffffff))
			out[i+1] = T(base + scale*(v>>32))
		}
		if i < n {
			out[i] = T(base + scale*uint64(binary.LittleEndian.Uint32(p[4*i:])))
		}
	default:
		// Sub-byte and foreign widths: one value per 64-bit window load.
		mask := uint64(1)<<width - 1
		bit := 0
		for i := range out {
			off := bit >> 3
			var v uint64
			if off+8 <= len(p) {
				v = binary.LittleEndian.Uint64(p[off:])
			} else {
				for b := 0; b < 8 && off+b < len(p); b++ {
					v |= uint64(p[off+b]) << (8 * b)
				}
			}
			out[i] = T(base + scale*(v>>(bit&7)&mask))
			bit += width
		}
	}
	return nil
}

// decodeIntCol decodes a column of len(out) values from data.
func decodeIntCol[T intColumn](data []byte, enc uint8, out []T, width int) error {
	n := len(out)
	switch enc {
	case encConst:
		z, pos := uvarint(data, 0)
		if pos != len(data) {
			return fmt.Errorf("const column: bad payload")
		}
		fill(out, T(unzigzag(z)))
		return nil
	case encRaw:
		if len(data) != n*width {
			return fmt.Errorf("raw column: %d bytes for %d rows of width %d", len(data), n, width)
		}
		switch width {
		case 1:
			for i := range out {
				out[i] = T(data[i])
			}
		case 2:
			for i := range out {
				out[i] = T(binary.LittleEndian.Uint16(data[2*i:]))
			}
		case 4:
			for i := range out {
				out[i] = T(binary.LittleEndian.Uint32(data[4*i:]))
			}
		default:
			for i := range out {
				out[i] = T(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		return nil
	case encPacked:
		return decodePacked(data, out)
	case encPackedScale:
		return decodePackedMul(data, out)
	case encDelta:
		z, pos := uvarint(data, 0)
		if pos < 0 {
			return fmt.Errorf("delta column: truncated first value")
		}
		cur := unzigzag(z)
		out[0] = T(cur)
		for i := 1; i < n; i++ {
			z, pos = uvarint(data, pos)
			if pos < 0 {
				return fmt.Errorf("delta column: truncated at row %d", i)
			}
			cur += unzigzag(z)
			out[i] = T(cur)
		}
		if pos != len(data) {
			return fmt.Errorf("delta column: %d trailing bytes", len(data)-pos)
		}
		return nil
	case encDeltaRLE:
		z, pos := uvarint(data, 0)
		if pos < 0 {
			return fmt.Errorf("rle column: truncated first value")
		}
		cur := unzigzag(z)
		out[0] = T(cur)
		i := 1
		for i < n {
			z, pos = uvarint(data, pos)
			if pos < 0 {
				return fmt.Errorf("rle column: truncated delta at row %d", i)
			}
			d := unzigzag(z)
			run, p := uvarint(data, pos)
			pos = p
			if pos < 0 || run == 0 || run > uint64(n-i) {
				return fmt.Errorf("rle column: bad run at row %d", i)
			}
			if d == 0 {
				fill(out[i:i+int(run)], T(cur))
				i += int(run)
				continue
			}
			for j := uint64(0); j < run; j++ {
				cur += d
				out[i] = T(cur)
				i++
			}
		}
		if pos != len(data) {
			return fmt.Errorf("rle column: %d trailing bytes", len(data)-pos)
		}
		return nil
	default:
		return fmt.Errorf("int column: unknown encoding %d", enc)
	}
}

// Bit-spread tables for packed byte columns: entry b expands the
// 8/4/2 packed fields of source byte b into one output byte each, so
// the unpack loop is one table load + one wide store per source byte.
var (
	spread1 [256]uint64
	spread2 [256]uint32
	spread4 [256]uint16
)

func init() {
	for b := 0; b < 256; b++ {
		for j := 0; j < 8; j++ {
			spread1[b] |= uint64(b>>j&1) << (8 * j)
		}
		for j := 0; j < 4; j++ {
			spread2[b] |= uint32(b>>(2*j)&3) << (8 * j)
		}
		spread4[b] = uint16(b&15) | uint16(b>>4)<<8
	}
}

// decodeU8Col is decodeIntCol specialized for byte columns: raw is a
// memmove and the sub-byte packed widths expand through the spread
// tables, several values per store.
func decodeU8Col(data []byte, enc uint8, out []uint8) error {
	if enc == encRaw {
		if len(data) != len(out) {
			return fmt.Errorf("raw column: %d bytes for %d rows of width 1", len(data), len(out))
		}
		copy(out, data)
		return nil
	}
	if enc == encPacked {
		return decodePackedU8(data, out)
	}
	return decodeIntCol(data, enc, out, 1)
}

// decodePackedU8 is the packed decoder for byte columns. The encoder
// keeps base + range ≤ 255, not base + 2^width − 1: a range of 9 rounds
// up to 4-bit lanes, so base 243 is valid though a lane could hold 15.
// The lane loops below add base to every lane of a word at once, which
// is exact only when no lane can carry past 255; otherwise the column
// decodes value by value and rejects only a value that really exceeds
// one byte.
func decodePackedU8(data []byte, out []uint8) error {
	base, pos := uvarint(data, 0)
	if pos < 0 || pos >= len(data) {
		return fmt.Errorf("packed column: truncated header")
	}
	width := int(data[pos])
	pos++
	if width < 1 || width > 8 {
		return fmt.Errorf("packed byte column: bad width %d", width)
	}
	n := len(out)
	if len(data)-pos != (n*width+7)/8 {
		return fmt.Errorf("packed column: %d payload bytes for %d rows of width %d", len(data)-pos, n, width)
	}
	if base > 0xff {
		return fmt.Errorf("packed byte column: base %d exceeds one byte", base)
	}
	lanes := width
	if base+(uint64(1)<<width-1) > 0xff {
		lanes = 0 // a lane could carry past one byte
	}
	p := data[pos:]
	i := 0
	switch lanes {
	case 1:
		rep := base * 0x0101010101010101
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], spread1[p[i>>3]]+rep)
		}
		for ; i < n; i++ {
			out[i] = uint8(base) + p[i>>3]>>(i&7)&1
		}
	case 2:
		rep := uint32(base) * 0x01010101
		for ; i+4 <= n; i += 4 {
			binary.LittleEndian.PutUint32(out[i:], spread2[p[i>>2]]+rep)
		}
		for ; i < n; i++ {
			out[i] = uint8(base) + p[i>>2]>>(2*(i&3))&3
		}
	case 4:
		rep := uint16(base) * 0x0101
		for ; i+2 <= n; i += 2 {
			binary.LittleEndian.PutUint16(out[i:], spread4[p[i>>1]]+rep)
		}
		if i < n {
			out[i] = uint8(base) + p[i>>1]&15
		}
	case 8:
		for i := range out {
			out[i] = uint8(base) + p[i]
		}
	default:
		// Lanes that could carry, and odd widths (which never beat raw
		// for byte columns): one value per byte-window load, checked.
		mask := uint32(1)<<width - 1
		bit := 0
		for i := range out {
			off := bit >> 3
			w := uint32(p[off])
			if off+1 < len(p) {
				w |= uint32(p[off+1]) << 8
			}
			v := base + uint64(w>>(bit&7)&mask)
			if v > 0xff {
				return fmt.Errorf("packed byte column: row %d value %d exceeds one byte", i, v)
			}
			out[i] = uint8(v)
			bit += width
		}
	}
	return nil
}

// encodeBoolCol appends a bool column (const or bit-packed).
func encodeBoolCol(dst []byte, xs []bool) (uint8, []byte) {
	allSame := true
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[0] {
			allSame = false
			break
		}
	}
	if allSame {
		v := byte(0)
		if xs[0] {
			v = 1
		}
		return encConst, append(dst, v)
	}
	nb := (len(xs) + 7) / 8
	start := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i, x := range xs {
		if x {
			dst[start+i>>3] |= 1 << (i & 7)
		}
	}
	return encBits, dst
}

func decodeBoolCol(data []byte, enc uint8, out []bool) error {
	switch enc {
	case encConst:
		if len(data) != 1 || data[0] > 1 {
			return fmt.Errorf("const bool column: bad payload")
		}
		fill(out, data[0] == 1)
		return nil
	case encBits:
		if len(data) != (len(out)+7)/8 {
			return fmt.Errorf("bit column: %d bytes for %d rows", len(data), len(out))
		}
		n := len(out)
		i := 0
		// Eight rows per byte, unrolled.
		for ; i+8 <= n; i += 8 {
			b := data[i>>3]
			out[i] = b&1 != 0
			out[i+1] = b&2 != 0
			out[i+2] = b&4 != 0
			out[i+3] = b&8 != 0
			out[i+4] = b&16 != 0
			out[i+5] = b&32 != 0
			out[i+6] = b&64 != 0
			out[i+7] = b&128 != 0
		}
		for ; i < n; i++ {
			out[i] = data[i>>3]>>(i&7)&1 == 1
		}
		return nil
	default:
		return fmt.Errorf("bool column: unknown encoding %d", enc)
	}
}

// encodeFloatCol appends a float32 column. Radio measurements hold
// steady for runs of slots, so runs of identical bit patterns are
// coded as (xor, run) pairs — decode is O(runs). High-entropy columns
// fall back to a raw copy; there is deliberately no varint-per-row
// float path.
func encodeFloatCol(dst []byte, xs []float32) (uint8, []byte) {
	n := len(xs)
	first := math.Float32bits(xs[0])
	i := 1
	for i < n && math.Float32bits(xs[i]) == first {
		i++
	}
	if i == n {
		return encConst, binary.LittleEndian.AppendUint32(dst, first)
	}
	// Size the (xor, run) pairs, stopping once runs·8 > n: past that RLE
	// is never chosen.
	maxRuns := n / 8
	rleSize := uvarintLen(uint64(first))
	runs := 0
	prev := first
	var runXor uint32
	runLen := 0
	for _, v := range xs[1:] {
		cur := math.Float32bits(v)
		x := prev ^ cur
		prev = cur
		if runLen > 0 && x == runXor {
			runLen++
			continue
		}
		if runLen > 0 {
			if runs++; runs > maxRuns {
				break
			}
			rleSize += uvarintLen(uint64(runXor)) + uvarintLen(uint64(runLen))
		}
		runXor, runLen = x, 1
	}
	if runs <= maxRuns {
		runs++
		rleSize += uvarintLen(uint64(runXor)) + uvarintLen(uint64(runLen))
	}
	if runs <= maxRuns && rleSize < 4*n {
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

func decodeFloatCol(data []byte, enc uint8, out []float32) error {
	switch enc {
	case encConst:
		if len(data) != 4 {
			return fmt.Errorf("const float column: bad payload")
		}
		fill(out, math.Float32frombits(binary.LittleEndian.Uint32(data)))
		return nil
	case encRaw:
		if len(data) != 4*len(out) {
			return fmt.Errorf("raw float column: %d bytes for %d rows", len(data), len(out))
		}
		i := 0
		for ; i+2 <= len(out); i += 2 {
			v := binary.LittleEndian.Uint64(data[4*i:])
			out[i] = math.Float32frombits(uint32(v))
			out[i+1] = math.Float32frombits(uint32(v >> 32))
		}
		if i < len(out) {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		return nil
	case encXorRLE:
		n := len(out)
		z, pos := uvarint(data, 0)
		if pos < 0 || z > math.MaxUint32 {
			return fmt.Errorf("xor-rle float column: bad first value")
		}
		cur := uint32(z)
		out[0] = math.Float32frombits(cur)
		i := 1
		for i < n {
			z, pos = uvarint(data, pos)
			if pos < 0 || z > math.MaxUint32 {
				return fmt.Errorf("xor-rle float column: bad xor at row %d", i)
			}
			x := uint32(z)
			run, p := uvarint(data, pos)
			pos = p
			if pos < 0 || run == 0 || run > uint64(n-i) {
				return fmt.Errorf("xor-rle float column: bad run at row %d", i)
			}
			if x == 0 {
				fill(out[i:i+int(run)], math.Float32frombits(cur))
				i += int(run)
				continue
			}
			for j := uint64(0); j < run; j++ {
				cur ^= x
				out[i] = math.Float32frombits(cur)
				i++
			}
		}
		if pos != len(data) {
			return fmt.Errorf("xor-rle float column: %d trailing bytes", len(data)-pos)
		}
		return nil
	default:
		return fmt.Errorf("float column: unknown encoding %d", enc)
	}
}
