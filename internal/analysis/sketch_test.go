package analysis

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestAccum(t *testing.T) {
	var a Accum
	for _, x := range []float64{3, -1, 4, 1, 5} {
		a.Add(x)
	}
	if a.N != 5 || a.Min != -1 || a.Max != 5 || a.Sum != 12 {
		t.Fatalf("accum %+v", a)
	}
	if got := a.Mean(); got != 12.0/5 {
		t.Fatalf("mean %g", got)
	}
	a.Add(math.NaN())
	a.Add(math.Inf(1))
	if a.N != 5 {
		t.Fatalf("non-finite values counted: N=%d", a.N)
	}

	var b, c Accum
	b.Add(10)
	c.Merge(a)
	c.Merge(b)
	if c.N != 6 || c.Min != -1 || c.Max != 10 || c.Sum != 22 {
		t.Fatalf("merged %+v", c)
	}
	var empty Accum
	c.Merge(empty)
	if c.N != 6 {
		t.Fatalf("empty merge changed the accumulator: %+v", c)
	}
}

// TestSketchConcurrentTableBuild adds one stream to sketches on several
// goroutines at once, so the first uses of the shared binade tables race
// (run it with -race); every sketch must serialize identically.
func TestSketchConcurrentTableBuild(t *testing.T) {
	xs := sketchStreams(9)["arbitrary-bits"]
	out := make([][]byte, 4)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSketch()
			for _, x := range xs {
				s.Add(x)
			}
			out[g] = s.AppendBinary(nil)
		}(g)
	}
	wg.Wait()
	for g := range out[1:] {
		if !bytes.Equal(out[g+1], out[0]) {
			t.Fatalf("goroutine %d serialized differently", g+1)
		}
	}
}

// TestSketchQuantileErrorBound checks the advertised relative-accuracy
// guarantee against exact quantiles on mixed-sign heavy-tailed data.
func TestSketchQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200_000
	xs := make([]float64, n)
	s := NewSketch()
	for i := range xs {
		x := math.Exp(rng.NormFloat64()*2) * 50 // lognormal, ~Mbps scale
		if i%5 == 0 {
			x = -x // mix in negatives (dB-style metrics)
		}
		if i%1000 == 0 {
			x = 0 // outage slots
		}
		xs[i] = x
		s.Add(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		exact := xs[int(q*float64(n-1))]
		got := s.Quantile(q)
		if exact == 0 {
			if got != 0 {
				t.Errorf("q=%g: got %g, want 0", q, got)
			}
			continue
		}
		if rel := math.Abs(got-exact) / math.Abs(exact); rel > SketchAlpha {
			t.Errorf("q=%g: got %g, exact %g, relative error %g > %g", q, got, exact, rel, SketchAlpha)
		}
	}
}

// TestSketchMergeOrderByteIdentity shards one stream many ways and
// merges the shards in different orders: every path must serialize to
// the identical byte string as the serial sketch.
func TestSketchMergeOrderByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 50_000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	serial := NewSketch()
	for _, x := range xs {
		serial.Add(x)
	}
	want := serial.AppendBinary(nil)

	for _, shards := range []int{2, 3, 7, 16} {
		parts := make([]*Sketch, shards)
		for i := range parts {
			parts[i] = NewSketch()
		}
		for i, x := range xs {
			parts[i%shards].Add(x)
		}
		order := rng.Perm(shards)
		merged := NewSketch()
		for _, i := range order {
			merged.Merge(parts[i])
		}
		if got := merged.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%d shards merged in order %v: digest diverged from serial", shards, order)
		}
	}
}

func TestSketchBinaryRoundTrip(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 1000; i++ {
		s.Add(float64(i-500) * 1.37)
	}
	enc := s.AppendBinary(nil)
	back, err := SketchFromBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.AppendBinary(nil), enc) {
		t.Fatal("serialization not idempotent through parse")
	}
	if back.Count() != s.Count() || back.Quantile(0.5) != s.Quantile(0.5) {
		t.Fatal("parsed sketch diverged")
	}
	if _, err := SketchFromBinary(enc[:10]); err == nil {
		t.Fatal("accepted truncated serialization")
	}
	bad := append([]byte(nil), enc...)
	bad[8]++ // count no longer matches bucket totals
	if _, err := SketchFromBinary(bad); err == nil {
		t.Fatal("accepted inconsistent count")
	}
}

func TestSketchEmptyAndEdge(t *testing.T) {
	s := NewSketch()
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch quantile not NaN")
	}
	s.Add(math.NaN())
	s.Add(math.Inf(-1))
	if s.Count() != 0 {
		t.Fatal("non-finite values counted")
	}
	s.Add(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); math.Abs(got-42)/42 > SketchAlpha {
			t.Fatalf("single-value sketch q=%g: %g", q, got)
		}
	}
}

// referenceSketch is the map-based sketch that Sketch replaced, kept
// verbatim (renamed) as the oracle for the dense windows and the
// table-driven bucket index.
type referenceSketch struct {
	gamma    float64
	logGamma float64
	count    uint64
	zero     uint64
	pos      map[int32]uint64
	neg      map[int32]uint64
}

func newReferenceSketch() *referenceSketch {
	gamma := (1 + SketchAlpha) / (1 - SketchAlpha)
	return &referenceSketch{
		gamma:    gamma,
		logGamma: math.Log(gamma),
		pos:      make(map[int32]uint64),
		neg:      make(map[int32]uint64),
	}
}

func (s *referenceSketch) bucket(mag float64) int32 {
	return int32(math.Ceil(math.Log(mag) / s.logGamma))
}

// value returns the representative (midpoint) value of bucket idx.
func (s *referenceSketch) value(idx int32) float64 {
	return 2 * math.Pow(s.gamma, float64(idx)) / (s.gamma + 1)
}

// Add folds one observation in; non-finite values are ignored.
func (s *referenceSketch) Add(x float64) { s.AddN(x, 1) }

// AddN folds n copies of x in.
func (s *referenceSketch) AddN(x float64, n uint64) {
	if n == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	s.count += n
	switch {
	case x > sketchZeroBand:
		s.pos[s.bucket(x)] += n
	case x < -sketchZeroBand:
		s.neg[s.bucket(-x)] += n
	default:
		s.zero += n
	}
}

// Count returns the number of observations folded in.
func (s *referenceSketch) Count() uint64 { return s.count }

// Merge folds another sketch in, bucket-wise.
func (s *referenceSketch) Merge(o *referenceSketch) {
	s.count += o.count
	s.zero += o.zero
	for idx, n := range o.pos {
		s.pos[idx] += n
	}
	for idx, n := range o.neg {
		s.neg[idx] += n
	}
}

func sortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Quantile returns the estimate for q in [0,1]; NaN when empty. The
// walk visits buckets in ascending value order (most-negative first),
// so the result is deterministic.
func (s *referenceSketch) Quantile(q float64) float64 {
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
	negKeys := sortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- {
		seen += s.neg[negKeys[i]]
		if seen > rank {
			return -s.value(negKeys[i])
		}
	}
	seen += s.zero
	if seen > rank {
		return 0
	}
	for _, idx := range sortedKeys(s.pos) {
		seen += s.pos[idx]
		if seen > rank {
			return s.value(idx)
		}
	}
	// Unreachable for a consistent sketch; fall back to the top bucket.
	if len(s.pos) > 0 {
		return s.value(sortedKeys(s.pos)[len(s.pos)-1])
	}
	return 0
}

// AppendBinary appends the canonical serialization: alpha, total and
// zero counts, then each bucket map as (len, sorted (idx, count)
// pairs). Bucket maps are emitted in sorted index order, so the bytes
// are a pure function of the sketch's contents.
func (s *referenceSketch) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(SketchAlpha))
	dst = binary.LittleEndian.AppendUint64(dst, s.count)
	dst = binary.LittleEndian.AppendUint64(dst, s.zero)
	for _, m := range []map[int32]uint64{s.neg, s.pos} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m)))
		for _, idx := range sortedKeys(m) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
			dst = binary.LittleEndian.AppendUint64(dst, m[idx])
		}
	}
	return dst
}

// sketchStreams returns generated observation streams covering both
// signs, the zero band and its edges, subnormals, ±MaxFloat64, non-finite
// values, float32-widened SINR/RSRQ traces and arbitrary finite bits.
func sketchStreams(seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	n := 20_000
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	edges := []float64{0, math.Copysign(0, -1), sketchZeroBand, -sketchZeroBand,
		math.Nextafter(sketchZeroBand, 1), -math.Nextafter(sketchZeroBand, 1),
		math.Nextafter(sketchZeroBand, 0), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, -math.MaxFloat64,
		math.Nextafter(math.MaxFloat64, 0), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}
	sinr := 12.0
	return map[string][]float64{
		"sinr-rsrq-float32": gen(func(i int) float64 {
			sinr += rng.NormFloat64() * 0.4
			sinr = math.Max(-12, math.Min(42, sinr))
			if i%2 == 0 {
				return float64(float32(sinr))
			}
			return float64(float32(-10.79 - 10*math.Log10(1+math.Pow(10, -sinr/10))))
		}),
		"lognormal-both-signs": gen(func(int) float64 {
			x := math.Exp(rng.NormFloat64()*8) * 50
			if rng.Intn(2) == 0 {
				x = -x
			}
			return x
		}),
		"zero-band-and-edges": gen(func(i int) float64 {
			if i%3 == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return (rng.Float64()*4 - 2) * sketchZeroBand
		}),
		"subnormal-and-tiny": gen(func(int) float64 {
			return math.Float64frombits(rng.Uint64() >> (1 + rng.Intn(12)))
		}),
		"arbitrary-bits": gen(func(int) float64 {
			return math.Float64frombits(rng.Uint64())
		}),
		"uniform-dB": gen(func(int) float64 {
			return rng.Float64()*200 - 100
		}),
	}
}

// TestSketchMatchesReference feeds generated streams to Sketch and
// referenceSketch: counts, a quantile sweep and the serialized bytes
// must agree, serially and after merging shards in shuffled orders.
func TestSketchMatchesReference(t *testing.T) {
	qs := []float64{-1, 0, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.33, 0.5, 0.66, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 2, math.NaN()}
	check := func(name string, s *Sketch, r *referenceSketch) {
		t.Helper()
		if s.Count() != r.Count() {
			t.Fatalf("%s: count %d, reference %d", name, s.Count(), r.Count())
		}
		for _, q := range qs {
			got, want := s.Quantile(q), r.Quantile(q)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: Quantile(%g) = %g, reference %g", name, q, got, want)
			}
		}
		if got, want := s.AppendBinary(nil), r.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: serialization differs from the reference (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for name, xs := range sketchStreams(seed) {
			s, r := NewSketch(), newReferenceSketch()
			for i, x := range xs {
				n := uint64(1)
				if i%97 == 0 {
					n = uint64(rng.Intn(4)) // AddN with 0 is a no-op
				}
				s.AddN(x, n)
				r.AddN(x, n)
			}
			check(name, s, r)

			for _, shards := range []int{2, 5, 11} {
				parts := make([]*Sketch, shards)
				refs := make([]*referenceSketch, shards)
				for i := range parts {
					parts[i], refs[i] = NewSketch(), newReferenceSketch()
				}
				for _, x := range xs {
					k := rng.Intn(shards)
					parts[k].Add(x)
					refs[k].Add(x)
				}
				ms, mr := NewSketch(), newReferenceSketch()
				for _, k := range rng.Perm(shards) {
					ms.Merge(parts[k])
					mr.Merge(refs[k])
				}
				check(name+"/merged", ms, mr)
			}
		}
	}
}

// TestSketchBucketDomain pins the domain constants to the formula.
func TestSketchBucketDomain(t *testing.T) {
	least := math.Nextafter(sketchZeroBand, 1)
	if got := exactBucket(least); got != sketchMinBucket {
		t.Errorf("exactBucket(least magnitude above the zero band) = %d, sketchMinBucket = %d", got, sketchMinBucket)
	}
	if got := exactBucket(math.MaxFloat64); got != sketchMaxBucket {
		t.Errorf("exactBucket(MaxFloat64) = %d, sketchMaxBucket = %d", got, sketchMaxBucket)
	}
	if e := int(math.Float64bits(least) >> 52); e != sketchMinExp {
		t.Errorf("biased exponent of the least magnitude %d, sketchMinExp = %d", e, sketchMinExp)
	}
	if e := int(math.Float64bits(math.MaxFloat64) >> 52); e != sketchMaxExp {
		t.Errorf("biased exponent of MaxFloat64 %d, sketchMaxExp = %d", e, sketchMaxExp)
	}
	for _, mag := range []float64{least, math.MaxFloat64, 1, 1e-3, 40} {
		if got, want := bucket(mag), exactBucket(mag); got != want {
			t.Errorf("bucket(%g) = %d, exactBucket %d", mag, got, want)
		}
	}
}

// checkBucketNear compares bucket with exactBucket within d ulps of
// bits, skipping magnitudes outside (sketchZeroBand, MaxFloat64].
func checkBucketNear(t testing.TB, bits uint64, d int) {
	t.Helper()
	for o := -d; o <= d; o++ {
		mag := math.Float64frombits(bits + uint64(o))
		if !(mag > sketchZeroBand && mag <= math.MaxFloat64) {
			continue
		}
		if got, want := bucket(mag), exactBucket(mag); got != want {
			t.Fatalf("bucket(%v) [bits %#x] = %d, exactBucket %d", mag, math.Float64bits(mag), got, want)
		}
	}
}

// TestSketchBucketTable builds every binade's table and checks that the
// build confirmed it (no binade falls back to exactBucket on this
// platform), that the slots agree with the boundaries, and that bucket
// equals exactBucket within sketchCheckUlps of every boundary and at
// every slot start.
func TestSketchBucketTable(t *testing.T) {
	for e := range sketchBinades {
		lo := uint64(e+sketchMinExp) << 52
		checkBucketNear(t, lo, 2) // forces the build
		b := &sketchBinades[e]
		if !b.exact {
			t.Fatalf("binade %d (2^%d) failed its build checks", e, e+sketchMinExp-1023)
		}
		for j := 1; b.lower[j] != math.MaxUint64; j++ {
			checkBucketNear(t, b.lower[j], sketchCheckUlps)
		}
		for s := range b.slot {
			checkBucketNear(t, lo+uint64(s)<<(52-sketchSlotBits), 1)
		}
	}
}

// FuzzSketchBucket pins the table-driven bucket to exactBucket for
// arbitrary float64 bits, and within ±4 ulps of the table boundary
// nearest to them.
func FuzzSketchBucket(f *testing.F) {
	for _, x := range []float64{1, 1.005, 0.5, 40, 1e-3, math.Nextafter(sketchZeroBand, 1), math.MaxFloat64, 0x1p-30, 12.3456} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		mag := math.Abs(math.Float64frombits(bits))
		if !(mag > sketchZeroBand && mag <= math.MaxFloat64) {
			return
		}
		checkBucketNear(t, math.Float64bits(mag), 0)
		b := &sketchBinades[int(math.Float64bits(mag)>>52)-sketchMinExp]
		j := b.slot[math.Float64bits(mag)>>(52-sketchSlotBits)&(1<<sketchSlotBits-1)]
		if edge := b.lower[j+1]; edge != math.MaxUint64 {
			checkBucketNear(t, edge, 4)
		}
	})
}

// FuzzSketchFromBinary: parsing never panics, and every accepted input
// round-trips byte for byte.
func FuzzSketchFromBinary(f *testing.F) {
	for _, xs := range [][]float64{nil, {0}, {1, -1, 2.5, -1e300, 1e-5}, {math.MaxFloat64, math.Nextafter(sketchZeroBand, 1)}} {
		s := NewSketch()
		for _, x := range xs {
			s.Add(x)
		}
		f.Add(s.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := SketchFromBinary(data)
		if err != nil {
			return
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, re-serialized as %x", data, got)
		}
		for _, q := range []float64{0, 0.5, 1} {
			s.Quantile(q)
		}
	})
}

// sketchBytes serializes hand-made bucket lists (negative then
// positive) with a consistent total count.
func sketchBytes(neg, pos [][2]uint64) []byte {
	var total uint64
	for _, b := range append(append([][2]uint64(nil), neg...), pos...) {
		total += b[1]
	}
	dst := binary.LittleEndian.AppendUint64(nil, math.Float64bits(SketchAlpha))
	dst = binary.LittleEndian.AppendUint64(dst, total)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	for _, side := range [][][2]uint64{neg, pos} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(side)))
		for _, b := range side {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(b[0]))
			dst = binary.LittleEndian.AppendUint64(dst, b[1])
		}
	}
	return dst
}

// TestSketchFromBinaryRejects covers what AppendBinary never writes:
// out-of-domain, duplicate and descending indices and zero counts. An
// index of MaxInt32 must fail without a domain-sized allocation.
func TestSketchFromBinaryRejects(t *testing.T) {
	idx := func(i int32) uint64 { return uint64(uint32(i)) }
	cases := map[string][]byte{
		"index MaxInt32":     sketchBytes(nil, [][2]uint64{{idx(math.MaxInt32), 1}}),
		"index above domain": sketchBytes(nil, [][2]uint64{{idx(sketchMaxBucket + 1), 1}}),
		"index below domain": sketchBytes([][2]uint64{{idx(sketchMinBucket - 1), 1}}, nil),
		"index MinInt32":     sketchBytes([][2]uint64{{idx(math.MinInt32), 1}}, nil),
		"last index hostile": sketchBytes(nil, [][2]uint64{{idx(0), 1}, {idx(math.MaxInt32), 1}}),
		"duplicate index":    sketchBytes(nil, [][2]uint64{{idx(5), 1}, {idx(5), 2}}),
		"descending index":   sketchBytes([][2]uint64{{idx(9), 1}, {idx(3), 2}}, nil),
		"zero count":         sketchBytes(nil, [][2]uint64{{idx(5), 0}, {idx(6), 2}}),
	}
	for name, data := range cases {
		if _, err := SketchFromBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	hostile := cases["index MaxInt32"]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		SketchFromBinary(hostile)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("10 rejected MaxInt32 parses allocated %d bytes", alloc)
	}
	// The domain's two ends are accepted and round-trip.
	ok := sketchBytes([][2]uint64{{idx(sketchMinBucket), 3}}, [][2]uint64{{idx(sketchMinBucket), 1}, {idx(sketchMaxBucket), 2}})
	s, err := SketchFromBinary(ok)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.AppendBinary(nil), ok) {
		t.Fatal("domain-edge serialization did not round-trip")
	}
}
