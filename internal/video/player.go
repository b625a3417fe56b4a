package video

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/net5g"
)

// SessionConfig parameterizes one streaming session (the paper's §6 setup:
// a DASH client pulling chunked VoD over the 5G link).
type SessionConfig struct {
	// Ladder is the quality ladder.
	Ladder Ladder
	// ChunkLength is the segment duration (4 s in §6.1, 1 s in §6.2).
	ChunkLength time.Duration
	// VideoDuration is the total media length.
	VideoDuration time.Duration
	// ABR is the adaptation algorithm.
	ABR ABR
	// MaxBufferSec pauses downloads when the buffer exceeds it
	// (default 30 s, dash.js's bufferTimeAtTopQuality — it must exceed
	// BOLA's top-quality threshold or the cap pins quality below top).
	MaxBufferSec float64
	// ThroughputWindow is the harmonic-mean window in chunks (default 4).
	ThroughputWindow int
	// Share is the UE's share of cell resources, in (0, 1] (default 1).
	Share float64
	// Edge, when non-nil, charges every chunk request an MEC-aware
	// round trip before its first byte (see EdgeConfig). Nil keeps the
	// player byte-identical to the pre-edge-caching one.
	Edge *EdgeConfig
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.MaxBufferSec == 0 {
		c.MaxBufferSec = 30
	}
	if c.ThroughputWindow == 0 {
		c.ThroughputWindow = 4
	}
	if c.Share == 0 {
		c.Share = 1
	}
	return c
}

// Validate checks the configuration.
func (c SessionConfig) Validate() error {
	if err := c.Ladder.Validate(); err != nil {
		return err
	}
	if c.ChunkLength <= 0 {
		return fmt.Errorf("video: chunk length %v invalid", c.ChunkLength)
	}
	if c.VideoDuration < c.ChunkLength {
		return fmt.Errorf("video: duration %v shorter than one chunk", c.VideoDuration)
	}
	if c.ABR == nil {
		return fmt.Errorf("video: no ABR algorithm")
	}
	// The buffer-cap gate waits for room for a whole chunk; a cap
	// smaller than one chunk would wait forever on an empty buffer.
	if c.MaxBufferSec < c.ChunkLength.Seconds() {
		return fmt.Errorf("video: buffer cap %gs smaller than one chunk (%v)", c.MaxBufferSec, c.ChunkLength)
	}
	if !(c.Share > 0 && c.Share <= 1) {
		return fmt.Errorf("video: share %g outside (0, 1]", c.Share)
	}
	if c.Edge != nil {
		if err := c.Edge.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ChunkRecord logs one chunk's lifecycle — the raw material of Figure 16's
// decision-timeline insets.
type ChunkRecord struct {
	// Index and Quality identify the chunk and the ABR's choice.
	Index, Quality int
	// RequestTime and ArriveTime bound the download.
	RequestTime, ArriveTime time.Duration
	// ThroughputMbps is the measured download rate.
	ThroughputMbps float64
	// BufferAtDecision is the buffer level when the ABR decided.
	BufferAtDecision float64
	// EdgeHit reports whether the chunk came from the MEC edge cache
	// (always false without SessionConfig.Edge).
	EdgeHit bool
}

// StallEvent is a rebuffering interval.
type StallEvent struct {
	Start    time.Duration
	Duration time.Duration
}

// Result carries the QoE metrics of §6.
type Result struct {
	// Chunks are the per-chunk records.
	Chunks []ChunkRecord
	// Stalls are the rebuffering events.
	Stalls []StallEvent
	// PlayTime is the media played; StallTime the total rebuffering.
	PlayTime, StallTime time.Duration
	// AvgQuality is the mean quality level (the paper's "Avg Quality =
	// 5.41" in Fig. 16).
	AvgQuality float64
	// AvgNormBitrate is the mean of bitrate/top-bitrate (the normalized
	// bitrate axis of Figs. 15, 17, 19).
	AvgNormBitrate float64
	// Switches counts quality changes between consecutive chunks.
	Switches int
	// BufferTrace samples (time, bufferSec) every 100 ms.
	BufferTrace [][2]float64
	// ThroughputTrace samples the link DL goodput in Mbps every 100 ms
	// while the session runs.
	ThroughputTrace []float64
}

// StallPct returns stall time as a percentage of wall-clock session time.
func (r *Result) StallPct() float64 {
	total := r.PlayTime + r.StallTime
	if total == 0 {
		return 0
	}
	return 100 * float64(r.StallTime) / float64(total)
}

// Play streams a session over the link and returns its QoE result. It
// steps the link until the last chunk arrives and leaves it there; the
// remaining buffer plays out on a local clock, since an idle slot
// delivers no DL bits and the bookkeeping reads only those and the clock.
func Play(link *net5g.Link, cfg SessionConfig) (*Result, error) {
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
	slot := link.SlotDuration()
	slotSec := slot.Seconds()
	samplePeriod := int(0.1/slotSec + 0.5)
	if samplePeriod < 1 {
		samplePeriod = 1
	}

	// account books one slot that ended at now and delivered bits:
	// playback, stalls and the 100 ms traces.
	account := func(now time.Duration, bits int) {
		if playing {
			if buffer > 0 {
				buffer -= slotSec
				res.PlayTime += slot
				if buffer < 0 {
					buffer = 0
				}
				if inStall {
					res.Stalls = append(res.Stalls, StallEvent{Start: stallStart, Duration: now - stallStart})
					res.StallTime += now - stallStart
					inStall = false
				}
			} else if !inStall {
				inStall = true
				stallStart = now
			}
		}
		sampleAcc += float64(bits)
		sampleSlots++
		if sampleSlots == samplePeriod {
			mbps := sampleAcc / (float64(samplePeriod) * slotSec) / 1e6
			res.ThroughputTrace = append(res.ThroughputTrace, mbps)
			res.BufferTrace = append(res.BufferTrace, [2]float64{now.Seconds(), buffer})
			sampleAcc, sampleSlots = 0, 0
		}
	}
	// step advances the link one slot with the given demand, into one
	// reused result.
	var r net5g.StepResult
	step := func(download bool) int {
		link.StepInto(&r, net5g.Demand{DL: download, Share: cfg.Share})
		account(link.Now(), r.DLBits)
		return r.DLBits
	}

	harmonic := func() float64 {
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
			for wait := cfg.Edge.RTT(i); wait > 0; wait -= slot {
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

	// Play out the buffer without the link (see above). The last chunk
	// left it non-empty, so the first slot closes any open stall.
	for now := link.Now(); buffer > 0; {
		now += slot
		account(now, 0)
	}
	if numChunks > 0 {
		res.AvgQuality = qualitySum / float64(numChunks)
		res.AvgNormBitrate = bitrateSum / float64(numChunks) / cfg.Ladder.Top()
	}
	return res, nil
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
