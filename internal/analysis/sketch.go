package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// This file adds the mergeable online aggregates the streaming scan
// path reduces through: an exact count/sum/min/max accumulator and a
// bucketed quantile sketch. Both merge deterministically — the sketch
// bucket-wise over integers, so shard merge order cannot change the
// result — which is what lets a parallel block scan produce the same
// summary as a serial pass.

// Accum is an online count/sum/min/max accumulator.
type Accum struct {
	N   int64
	Sum float64
	Min float64
	Max float64
}

// Add folds one observation in. Non-finite values are ignored so a
// corrupt slot cannot poison a whole campaign summary.
func (a *Accum) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if a.N == 0 || x < a.Min {
		a.Min = x
	}
	if a.N == 0 || x > a.Max {
		a.Max = x
	}
	a.N++
	a.Sum += x
}

// Merge folds another accumulator in. Min/max/count are order-
// independent; the float sum is folded in shard order, so callers
// merging parallel shards must do so in a fixed order (fleet.Stream's
// ordered emission provides one).
func (a *Accum) Merge(b Accum) {
	if b.N == 0 {
		return
	}
	if a.N == 0 || b.Min < a.Min {
		a.Min = b.Min
	}
	if a.N == 0 || b.Max > a.Max {
		a.Max = b.Max
	}
	a.N += b.N
	a.Sum += b.Sum
}

// Mean returns Sum/N, or 0 for an empty accumulator.
func (a Accum) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// SketchAlpha is the sketch's relative accuracy: a quantile estimate q̂
// satisfies |q̂ - q| ≤ SketchAlpha·|q| for values outside the
// collapsed-to-zero band.
const SketchAlpha = 0.005

// sketchZeroBand: magnitudes below this land in the zero bucket. The
// KPI metrics the pipeline sketches (Mbps, dB, dBm, slots) never live
// below 1e-9 in a meaningful way.
const sketchZeroBand = 1e-9

// sketchGamma is the bucket base: bucket k holds the magnitudes in
// (γ^(k-1), γ^k].
const sketchGamma = (1 + SketchAlpha) / (1 - SketchAlpha)

// The bucket domain: exactBucket of the least magnitude above
// sketchZeroBand and of math.MaxFloat64. No finite observation, and no
// accepted serialization, has a bucket outside it.
const (
	sketchMinBucket = -2072
	sketchMaxBucket = 70978
	sketchDomain    = sketchMaxBucket - sketchMinBucket + 1
)

// Sketch is a DDSketch-style log-bucketed quantile sketch with
// relative accuracy SketchAlpha. Buckets hold integer counts, so Merge
// is bucket-wise addition — associative, commutative, and bit-exact
// regardless of shard order — and AppendBinary emits a canonical byte
// string: two sketches fed the same multiset of values serialize
// identically no matter how they were sharded or merged.
//
// Each sign keeps its counts in a dense window (sketchWindow) that
// grows on demand and never past the bucket domain, so one sketch holds
// at most 2·sketchDomain counters (about 1.2 MB) whatever it is fed.
// Add finds a bucket through per-binade tables of exact bucket
// boundaries (see bucket) instead of a logarithm; the result is the
// bucket exactBucket gives, bit for bit.
type Sketch struct {
	count uint64
	zero  uint64
	pos   sketchWindow
	neg   sketchWindow
}

// NewSketch returns an empty sketch at the package accuracy.
func NewSketch() *Sketch { return &Sketch{} }

// exactBucket is the defining formula of the bucket of magnitude mag.
// It takes ln γ per call instead of from a package variable, so binaries
// that link the package but never sketch carry no init function for it;
// only table builds and their fallback call it.
func exactBucket(mag float64) int32 {
	return int32(math.Ceil(math.Log(mag) / math.Log(sketchGamma)))
}

// Bucket tables. A positive float64 with biased exponent E and mantissa
// m lies in the binade [2^(E-1023), 2^(E-1022)), which spans ln2/lnγ ≈
// 69.3 buckets. Each binade a sketch touches gets a table on first use:
// the exact lower boundary of every bucket that starts inside it (the
// least float64 whose exactBucket is that bucket, found by bisection
// over the float64 bit patterns) and, for each of 256 mantissa slots
// (the top 8 mantissa bits), the bucket of the slot's least value. A
// slot is at most ln(1+1/256)/lnγ ≈ 0.39 buckets wide, so it holds at
// most one boundary and one compare against the next boundary finishes
// the lookup.
//
// The bisection finds the boundary a monotone formula would have. The
// build confirms monotony within sketchCheckUlps of every boundary and
// that no slot holds two boundaries; a binade that fails either check
// keeps exact == false and its inputs take exactBucket. FuzzSketchBucket
// pins bucket to exactBucket.
const (
	sketchMinExp      = 993  // biased exponent of the least magnitude above sketchZeroBand
	sketchMaxExp      = 2046 // biased exponent of math.MaxFloat64
	sketchSlotBits    = 8
	sketchBinadeSpan  = 73 // ≤ 70 buckets start inside a binade: base, those, two sentinels
	sketchCheckUlps   = 4
	sketchMinWindow   = 64
	sketchMantissaLen = 52
)

type sketchBinade struct {
	once  sync.Once
	exact bool
	base  int32                      // exactBucket of the binade's least value
	slot  [1 << sketchSlotBits]uint8 // bucket − base of each slot's least value
	// lower[j] holds the bits of the least value of bucket base+j, or
	// MaxUint64 past the binade. Positive float64s order as their bits.
	lower [sketchBinadeSpan]uint64
}

// sketchBinades is zero until a binade is first used; untouched entries
// cost address space only.
var sketchBinades [sketchMaxExp - sketchMinExp + 1]sketchBinade

// bucket returns exactBucket(mag) for a finite mag > sketchZeroBand.
func bucket(mag float64) int32 {
	bits := math.Float64bits(mag)
	e := int(bits>>sketchMantissaLen) - sketchMinExp
	b := &sketchBinades[e]
	b.once.Do(func() { b.build(e) })
	if !b.exact {
		return exactBucket(mag)
	}
	j := int32(b.slot[bits>>(sketchMantissaLen-sketchSlotBits)&(1<<sketchSlotBits-1)])
	var up int32 // a flag, not a branch: which side of the boundary is a coin flip
	if bits >= b.lower[j+1] {
		up = 1
	}
	return b.base + j + up
}

// build fills binade e's table and sets exact once every check holds.
func (b *sketchBinade) build(e int) {
	lo := uint64(e+sketchMinExp) << sketchMantissaLen
	last := lo + 1<<sketchMantissaLen - 1
	f := func(bits uint64) int32 { return exactBucket(math.Float64frombits(bits)) }
	b.base = f(lo)
	n := int(f(last) - b.base)
	if n < 0 || n > sketchBinadeSpan-3 {
		return
	}
	for j := range b.lower {
		b.lower[j] = math.MaxUint64
	}
	b.lower[0] = lo
	for j := 1; j <= n; j++ {
		want := b.base + int32(j)
		below, at := b.lower[j-1], last // f(below) < want ≤ f(at)
		for at-below > 1 {
			mid := below + (at-below)/2
			if f(mid) >= want {
				at = mid
			} else {
				below = mid
			}
		}
		for d := uint64(1); d <= sketchCheckUlps; d++ {
			if f(at-d) != want-1 {
				return
			}
		}
		for d := uint64(0); d <= sketchCheckUlps && at+d <= last; d++ {
			if f(at+d) != want {
				return
			}
		}
		b.lower[j] = at
	}
	j := 0
	for s := range b.slot {
		start := lo + uint64(s)<<(sketchMantissaLen-sketchSlotBits)
		for b.lower[j+1] <= start {
			j++
		}
		if b.lower[j+2] < start+1<<(sketchMantissaLen-sketchSlotBits) {
			return // two boundaries in one slot
		}
		b.slot[s] = uint8(j)
	}
	b.exact = true
}

// sketchValue returns the representative (midpoint) value of bucket idx.
func sketchValue(idx int32) float64 {
	return 2 * math.Pow(sketchGamma, float64(idx)) / (sketchGamma + 1)
}

// sketchWindow holds one sign's bucket counts densely: counts[i] is the
// count of bucket off+i. The window always lies inside the bucket
// domain.
type sketchWindow struct {
	off    int32
	counts []uint64
}

func (w *sketchWindow) add(idx int32, n uint64) {
	if uint(idx-w.off) >= uint(len(w.counts)) {
		w.grow(idx, idx)
	}
	w.counts[idx-w.off] += n
}

// grow widens the window to cover buckets [lo, hi], both in the domain,
// at least doubling it so a stream of new buckets costs amortized O(1).
func (w *sketchWindow) grow(lo, hi int32) {
	if len(w.counts) > 0 {
		lo = min(lo, w.off)
		hi = max(hi, w.off+int32(len(w.counts))-1)
	}
	size := min(max(2*len(w.counts), int(hi-lo)+1, sketchMinWindow), sketchDomain)
	off := lo - int32(size-int(hi-lo)-1)/2
	off = min(max(off, sketchMinBucket), sketchMaxBucket-int32(size)+1)
	counts := make([]uint64, size)
	if len(w.counts) > 0 {
		copy(counts[w.off-off:], w.counts)
	}
	w.off, w.counts = off, counts
}

func (w *sketchWindow) merge(o *sketchWindow) {
	if len(o.counts) == 0 {
		return
	}
	lo, hi := o.off, o.off+int32(len(o.counts))-1
	if lo < w.off || hi >= w.off+int32(len(w.counts)) {
		w.grow(lo, hi)
	}
	dst := w.counts[lo-w.off:]
	for i, c := range o.counts {
		dst[i] += c
	}
}

// Add folds one observation in; non-finite values are ignored.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN folds n copies of x in.
func (s *Sketch) AddN(x float64, n uint64) {
	mag := math.Abs(x)
	if n == 0 || !(mag <= math.MaxFloat64) { // NaN and ±Inf fail the compare
		return
	}
	s.count += n
	if !(mag > sketchZeroBand) {
		s.zero += n
		return
	}
	w := &s.pos
	if x < 0 {
		w = &s.neg
	}
	w.add(bucket(mag), n)
}

// Count returns the number of observations folded in.
func (s *Sketch) Count() uint64 { return s.count }

// Merge folds another sketch in, bucket-wise.
func (s *Sketch) Merge(o *Sketch) {
	s.count += o.count
	s.zero += o.zero
	s.pos.merge(&o.pos)
	s.neg.merge(&o.neg)
}

// Quantile returns the estimate for q in [0,1]; NaN when empty. The
// walk visits buckets in ascending value order (most-negative first),
// so the result is deterministic.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.count-1))
	var seen uint64
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		seen += s.neg.counts[i]
		if seen > rank {
			return -sketchValue(s.neg.off + int32(i))
		}
	}
	seen += s.zero
	if seen > rank {
		return 0
	}
	for i, c := range s.pos.counts {
		seen += c
		if seen > rank {
			return sketchValue(s.pos.off + int32(i))
		}
	}
	// Unreachable for a consistent sketch; fall back to the top bucket.
	for i := len(s.pos.counts) - 1; i >= 0; i-- {
		if s.pos.counts[i] != 0 {
			return sketchValue(s.pos.off + int32(i))
		}
	}
	return 0
}

// AppendBinary appends the canonical serialization: alpha, total and
// zero counts, then for the negative and the positive buckets (len,
// (idx, count) pairs in ascending idx order, nonzero counts only). The
// bytes are a pure function of the sketch's contents.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(SketchAlpha))
	dst = binary.LittleEndian.AppendUint64(dst, s.count)
	dst = binary.LittleEndian.AppendUint64(dst, s.zero)
	for _, w := range [...]*sketchWindow{&s.neg, &s.pos} {
		at := len(dst)
		dst = binary.LittleEndian.AppendUint32(dst, 0)
		var n uint32
		for i, c := range w.counts {
			if c != 0 {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(w.off+int32(i)))
				dst = binary.LittleEndian.AppendUint64(dst, c)
				n++
			}
		}
		binary.LittleEndian.PutUint32(dst[at:], n)
	}
	return dst
}

// SketchFromBinary parses an AppendBinary serialization. It accepts
// exactly what AppendBinary writes: bucket indices strictly ascending
// within the bucket domain, nonzero counts, and counts that add up to
// the total. A hostile input therefore cannot make it allocate more
// than the two domain-sized windows.
func SketchFromBinary(data []byte) (*Sketch, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("analysis: sketch serialization too short")
	}
	// Bit equality on purpose: merges are only defined between sketches
	// built with the identical bucket base, so the serialized alpha must
	// be the exact constant.
	alphaBits := binary.LittleEndian.Uint64(data)
	if alphaBits != math.Float64bits(SketchAlpha) {
		return nil, fmt.Errorf("analysis: sketch alpha %g, want %g",
			math.Float64frombits(alphaBits), SketchAlpha)
	}
	s := NewSketch()
	s.count = binary.LittleEndian.Uint64(data[8:])
	s.zero = binary.LittleEndian.Uint64(data[16:])
	pos := 24
	var total uint64 = s.zero
	for _, w := range [...]*sketchWindow{&s.neg, &s.pos} {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("analysis: sketch serialization truncated")
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if n > (len(data)-pos)/12 {
			return nil, fmt.Errorf("analysis: sketch bucket count %d exceeds payload", n)
		}
		prev := int32(sketchMinBucket - 1)
		for i := 0; i < n; i++ {
			idx := int32(binary.LittleEndian.Uint32(data[pos:]))
			c := binary.LittleEndian.Uint64(data[pos+4:])
			switch {
			case idx < sketchMinBucket || idx > sketchMaxBucket:
				return nil, fmt.Errorf("analysis: sketch bucket index %d outside [%d, %d]",
					idx, sketchMinBucket, sketchMaxBucket)
			case idx <= prev:
				return nil, fmt.Errorf("analysis: sketch bucket index %d after %d", idx, prev)
			case c == 0:
				return nil, fmt.Errorf("analysis: sketch bucket %d has a zero count", idx)
			}
			w.add(idx, c)
			prev = idx
			pos += 12
			total += c
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("analysis: %d trailing bytes after sketch", len(data)-pos)
	}
	if total != s.count {
		return nil, fmt.Errorf("analysis: sketch bucket total %d != count %d", total, s.count)
	}
	return s, nil
}
