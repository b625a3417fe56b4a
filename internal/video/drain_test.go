package video

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

// referencePlay is the straightforward player Play is checked against:
// it steps the link every slot until the buffer has played out, drain
// included, where Play stops stepping at the last chunk's arrival and
// books the drain on a local clock. Keep it simple rather than fast.
func referencePlay(link *net5g.Link, cfg SessionConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chunkSec := cfg.ChunkLength.Seconds()
	numChunks := int(cfg.VideoDuration / cfg.ChunkLength)
	res := &Result{}

	var (
		buffer     float64 // seconds of media buffered
		playing    bool
		recent     []float64 // recent chunk throughputs
		lastQ      = -1
		stallStart time.Duration
		inStall    bool
		qualitySum float64
		bitrateSum float64

		sampleAcc   float64 // bits accumulated since last 100 ms sample
		sampleSlots int
	)
	slotSec := link.SlotDuration().Seconds()
	samplePeriod := int(0.1/slotSec + 0.5)
	if samplePeriod < 1 {
		samplePeriod = 1
	}

	// step advances the link one slot with the given demand, maintaining
	// playback, stalls and traces.
	step := func(download bool) int {
		r := link.Step(net5g.Demand{DL: download, Share: cfg.Share})
		if playing {
			if buffer > 0 {
				buffer -= slotSec
				res.PlayTime += link.SlotDuration()
				if buffer < 0 {
					buffer = 0
				}
				if inStall {
					res.Stalls = append(res.Stalls, StallEvent{Start: stallStart, Duration: link.Now() - stallStart})
					res.StallTime += link.Now() - stallStart
					inStall = false
				}
			} else if !inStall {
				inStall = true
				stallStart = link.Now()
			}
		}
		sampleAcc += float64(r.DLBits)
		sampleSlots++
		if sampleSlots == samplePeriod {
			mbps := sampleAcc / (float64(samplePeriod) * slotSec) / 1e6
			res.ThroughputTrace = append(res.ThroughputTrace, mbps)
			res.BufferTrace = append(res.BufferTrace, [2]float64{link.Now().Seconds(), buffer})
			sampleAcc, sampleSlots = 0, 0
		}
		return r.DLBits
	}

	harmonic := func() float64 {
		if len(recent) == 0 {
			return 0
		}
		inv := 0.0
		for _, t := range recent {
			if t <= 0 {
				continue
			}
			inv += 1 / t
		}
		if inv == 0 {
			return 0
		}
		return float64(len(recent)) / inv
	}

	for i := 0; i < numChunks; i++ {
		// Buffer cap: idle until there is room for the next chunk.
		for buffer+chunkSec > cfg.MaxBufferSec {
			step(false)
		}

		st := State{
			BufferSec:          buffer,
			LastThroughputMbps: last(recent),
			HarmonicMeanMbps:   harmonic(),
			LastQuality:        lastQ,
			ChunkIndex:         i,
			ChunkLengthSec:     chunkSec,
			Ladder:             cfg.Ladder,
		}
		q := cfg.ABR.Decide(st)
		if q < 0 {
			q = 0
		}
		if q >= len(cfg.Ladder) {
			q = len(cfg.Ladder) - 1
		}
		if lastQ >= 0 && q != lastQ {
			res.Switches++
		}

		rec := ChunkRecord{
			Index: i, Quality: q,
			RequestTime:      link.Now(),
			BufferAtDecision: buffer,
		}
		if cfg.Edge != nil {
			// The request round trip: no payload arrives while the GET
			// travels to the edge cache (hit) or the origin CDN (miss).
			// Playback continues, so shallow buffers drain into stalls.
			rec.EdgeHit = cfg.Edge.Hit(i)
			for wait := cfg.Edge.RTT(i); wait > 0; wait -= link.SlotDuration() {
				step(false)
			}
		}
		chunkBits := cfg.Ladder[q] * 1e6 * chunkSec
		got := 0.0
		for got < chunkBits {
			got += float64(step(true))
		}
		rec.ArriveTime = link.Now()
		dl := (rec.ArriveTime - rec.RequestTime).Seconds()
		if dl > 0 {
			rec.ThroughputMbps = chunkBits / dl / 1e6
		}
		res.Chunks = append(res.Chunks, rec)
		recent = append(recent, rec.ThroughputMbps)
		if len(recent) > cfg.ThroughputWindow {
			recent = recent[1:]
		}
		buffer += chunkSec
		playing = true
		lastQ = q
		qualitySum += float64(q)
		bitrateSum += cfg.Ladder[q]
	}

	// Drain the buffer to finish playback.
	for buffer > 0 {
		step(false)
	}
	if inStall {
		res.StallTime += link.Now() - stallStart
		res.Stalls = append(res.Stalls, StallEvent{Start: stallStart, Duration: link.Now() - stallStart})
	}
	if numChunks > 0 {
		res.AvgQuality = qualitySum / float64(numChunks)
		res.AvgNormBitrate = bitrateSum / float64(numChunks) / cfg.Ladder.Top()
	}
	return res, nil
}

// drainCase is one generated session for the drain oracle, in
// FuzzPlayDrain's raw inputs.
type drainCase struct {
	seed            int64
	walking, mmWave bool  // Tmb_US walking instead of V_Sp stationary; the §7 ladder
	chunk, chunks   uint8 // 1–4 s chunks, 1–12 chunks of media
	buf             uint8 // buffer cap from one chunk to 30 s in 256 steps
	edge            bool
	abr             uint8 // BOLA, throughput or dynamic
}

// stallAtLastArrival is a session whose last chunk arrives during a
// stall, so the drain's first slot closes it.
var stallAtLastArrival = drainCase{21, false, true, 21, 105, 9, true, 21}

// play runs the case through one player on a fresh link.
func (c drainCase) play(t *testing.T, player func(*net5g.Link, SessionConfig) (*Result, error)) (*Result, *net5g.Link) {
	t.Helper()
	acr, sc := "V_Sp", operators.Stationary(c.seed)
	if c.walking {
		acr, sc = "Tmb_US", operators.Walking(c.seed)
	}
	op, err := operators.ByAcronym(acr)
	if err != nil {
		t.Fatal(err)
	}
	lcfg, err := op.LinkConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	link, err := net5g.NewLink(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	chunkSec := 1 + int(c.chunk%4)
	cfg := SessionConfig{
		Ladder:        Ladder400,
		ChunkLength:   time.Duration(chunkSec) * time.Second,
		VideoDuration: time.Duration(chunkSec*(1+int(c.chunks%12))) * time.Second,
		ABR:           []ABR{NewBOLA(), &ThroughputABR{}, NewDynamic()}[c.abr%3],
		MaxBufferSec:  float64(chunkSec) + (30-float64(chunkSec))*float64(c.buf)/255,
	}
	if c.mmWave {
		cfg.Ladder = LadderMmWave
	}
	if c.edge {
		cfg.Edge = &EdgeConfig{HitRatio: 0.5, OriginRTT: 80 * time.Millisecond, EdgeRTT: 10 * time.Millisecond, Seed: c.seed}
	}
	res, err := player(link, cfg)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	return res, link
}

// check plays the case through Play and referencePlay and requires the
// results to match bit for bit, with Play's link left at the last
// chunk's arrival. It returns Play's result.
func (c drainCase) check(t *testing.T) *Result {
	t.Helper()
	got, link := c.play(t, Play)
	want, _ := c.play(t, referencePlay)
	if d := resultDiff(got, want); d != "" {
		t.Fatalf("%+v: Play differs from referencePlay: %s", c, d)
	}
	if last := got.Chunks[len(got.Chunks)-1].ArriveTime; link.Now() != last {
		t.Fatalf("%+v: link at %v after Play, last chunk arrived at %v", c, link.Now(), last)
	}
	return got
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// resultDiff describes the first difference between two results, with
// floats compared bit for bit, or returns "".
func resultDiff(got, want *Result) string {
	switch {
	case len(got.Chunks) != len(want.Chunks):
		return fmt.Sprintf("%d chunks, want %d", len(got.Chunks), len(want.Chunks))
	case len(got.Stalls) != len(want.Stalls):
		return fmt.Sprintf("%d stalls, want %d", len(got.Stalls), len(want.Stalls))
	case len(got.BufferTrace) != len(want.BufferTrace):
		return fmt.Sprintf("%d buffer samples, want %d", len(got.BufferTrace), len(want.BufferTrace))
	case len(got.ThroughputTrace) != len(want.ThroughputTrace):
		return fmt.Sprintf("%d throughput samples, want %d", len(got.ThroughputTrace), len(want.ThroughputTrace))
	case got.PlayTime != want.PlayTime || got.StallTime != want.StallTime:
		return fmt.Sprintf("play/stall %v/%v, want %v/%v", got.PlayTime, got.StallTime, want.PlayTime, want.StallTime)
	case !sameBits(got.AvgQuality, want.AvgQuality) || !sameBits(got.AvgNormBitrate, want.AvgNormBitrate) || got.Switches != want.Switches:
		return fmt.Sprintf("averages %v/%v/%d, want %v/%v/%d",
			got.AvgQuality, got.AvgNormBitrate, got.Switches, want.AvgQuality, want.AvgNormBitrate, want.Switches)
	}
	for i, g := range got.Chunks {
		w := want.Chunks[i]
		if g.Index != w.Index || g.Quality != w.Quality || g.RequestTime != w.RequestTime || g.ArriveTime != w.ArriveTime ||
			!sameBits(g.ThroughputMbps, w.ThroughputMbps) || !sameBits(g.BufferAtDecision, w.BufferAtDecision) || g.EdgeHit != w.EdgeHit {
			return fmt.Sprintf("chunk %d: %+v, want %+v", i, g, w)
		}
	}
	for i, g := range got.Stalls {
		if g != want.Stalls[i] {
			return fmt.Sprintf("stall %d: %+v, want %+v", i, g, want.Stalls[i])
		}
	}
	for i, g := range got.BufferTrace {
		w := want.BufferTrace[i]
		if !sameBits(g[0], w[0]) || !sameBits(g[1], w[1]) {
			return fmt.Sprintf("buffer sample %d: %v, want %v", i, g, w)
		}
	}
	for i, g := range got.ThroughputTrace {
		if !sameBits(g, want.ThroughputTrace[i]) {
			return fmt.Sprintf("throughput sample %d: %v, want %v", i, g, want.ThroughputTrace[i])
		}
	}
	return ""
}

// TestPlayDrainClosesStall pins the corpus case whose last chunk
// arrives while a stall is open: the drain's first slot must close it
// exactly as a stepped link would.
func TestPlayDrainClosesStall(t *testing.T) {
	res := stallAtLastArrival.check(t)
	last := res.Chunks[len(res.Chunks)-1].ArriveTime
	k := len(res.Stalls)
	if k == 0 || res.Stalls[k-1].Start+res.Stalls[k-1].Duration <= last {
		t.Fatalf("no stall open at the last arrival (%v): %+v", last, res.Stalls)
	}
}

// FuzzPlayDrain checks Play against referencePlay over generated
// sessions: V_Sp stationary or Tmb_US walking, either ladder, 1–4 s
// chunks, 1–12 chunks of media, a buffer cap from one chunk to 30 s,
// edge caching on or off and all three ABRs.
func FuzzPlayDrain(f *testing.F) {
	for _, c := range []drainCase{
		{1, false, false, 3, 2, 255, false, 0},
		{7, true, false, 1, 5, 40, true, 1},
		{2024, false, true, 0, 7, 0, true, 2},
		{-5, true, true, 2, 0, 128, false, 0},
		stallAtLastArrival,
	} {
		f.Add(c.seed, c.walking, c.mmWave, c.chunk, c.chunks, c.buf, c.edge, c.abr)
	}
	f.Fuzz(func(t *testing.T, seed int64, walking, mmWave bool, chunk, chunks, buf uint8, edge bool, abr uint8) {
		drainCase{seed, walking, mmWave, chunk, chunks, buf, edge, abr}.check(t)
	})
}
