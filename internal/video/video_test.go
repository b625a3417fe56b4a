package video

import (
	"math"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

func TestLadderValidate(t *testing.T) {
	if err := Ladder400.Validate(); err != nil {
		t.Error(err)
	}
	if err := LadderMmWave.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Ladder{100}).Validate(); err == nil {
		t.Error("single-level ladder should fail")
	}
	if err := (Ladder{100, 50}).Validate(); err == nil {
		t.Error("descending ladder should fail")
	}
	if Ladder400.Top() != 750 {
		t.Errorf("Ladder400 top = %g", Ladder400.Top())
	}
}

func TestBOLABufferMonotone(t *testing.T) {
	// BOLA picks higher quality at higher buffer levels.
	b := NewBOLA()
	prev := -1
	for _, buf := range []float64{0, 4, 8, 12, 16, 20, 24, 30} {
		q := b.Decide(State{BufferSec: buf, ChunkLengthSec: 4, Ladder: Ladder400})
		if q < prev {
			t.Errorf("BOLA quality decreased (%d→%d) as buffer grew to %.0f", prev, q, buf)
		}
		prev = q
	}
	// Empty buffer → lowest level; deep buffer → top level.
	if q := b.Decide(State{BufferSec: 0, ChunkLengthSec: 4, Ladder: Ladder400}); q != 0 {
		t.Errorf("BOLA at empty buffer = %d, want 0", q)
	}
	if q := b.Decide(State{BufferSec: 30, ChunkLengthSec: 4, Ladder: Ladder400}); q != len(Ladder400)-1 {
		t.Errorf("BOLA at deep buffer = %d, want top", q)
	}
}

func TestBOLAChunkLengthIndependence(t *testing.T) {
	// The BOLA objective normalizes by chunk size, so the decision at a
	// given buffer level does not depend on segment length.
	b := NewBOLA()
	for _, buf := range []float64{2, 6, 12, 18} {
		q4 := b.Decide(State{BufferSec: buf, ChunkLengthSec: 4, Ladder: Ladder400})
		q1 := b.Decide(State{BufferSec: buf, ChunkLengthSec: 1, Ladder: Ladder400})
		if q4 != q1 {
			t.Errorf("BOLA at buffer %.0f: 4s→%d, 1s→%d", buf, q4, q1)
		}
	}
}

func TestThroughputABR(t *testing.T) {
	a := &ThroughputABR{}
	if q := a.Decide(State{Ladder: Ladder400}); q != 0 {
		t.Errorf("no estimate should give level 0, got %d", q)
	}
	// 500 Mbps estimate with 0.9 safety → budget 450 → level 4 (400).
	if q := a.Decide(State{HarmonicMeanMbps: 500, Ladder: Ladder400}); q != 4 {
		t.Errorf("500 Mbps → level %d, want 4", q)
	}
	// Even huge estimates cap at the top level.
	if q := a.Decide(State{HarmonicMeanMbps: 1e6, Ladder: Ladder400}); q != 6 {
		t.Errorf("huge estimate → level %d, want 6", q)
	}
	// Below the lowest level stays at 0.
	if q := a.Decide(State{HarmonicMeanMbps: 10, Ladder: Ladder400}); q != 0 {
		t.Errorf("10 Mbps → level %d, want 0", q)
	}
}

func TestDynamicSwitchesController(t *testing.T) {
	d := NewDynamic()
	// Shallow buffer: throughput-based (estimate 500 → level 4).
	q := d.Decide(State{BufferSec: 2, HarmonicMeanMbps: 500, ChunkLengthSec: 4, Ladder: Ladder400})
	if q != 4 {
		t.Errorf("shallow buffer should be throughput-driven: got %d", q)
	}
	// Deep buffer: BOLA takes over (top at ≥ target regardless of estimate).
	q = d.Decide(State{BufferSec: 30, HarmonicMeanMbps: 100, ChunkLengthSec: 4, Ladder: Ladder400})
	if q != 6 {
		t.Errorf("deep buffer should be BOLA-driven: got %d", q)
	}
	// Hysteresis: dropping to 9 s keeps BOLA; below 8 s reverts.
	d.Decide(State{BufferSec: 9, HarmonicMeanMbps: 500, ChunkLengthSec: 4, Ladder: Ladder400})
	if !d.useBola {
		t.Error("9 s buffer should stay on BOLA")
	}
	d.Decide(State{BufferSec: 5, HarmonicMeanMbps: 500, ChunkLengthSec: 4, Ladder: Ladder400})
	if d.useBola {
		t.Error("5 s buffer should revert to throughput")
	}
}

func testLink(t *testing.T, acr string, seed int64) *net5g.Link {
	t.Helper()
	op, err := operators.ByAcronym(acr)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := op.LinkConfig(operators.Stationary(seed))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net5g.NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPlayValidation(t *testing.T) {
	l := testLink(t, "V_Sp", 41)
	bad := []SessionConfig{
		{},
		{Ladder: Ladder400, ChunkLength: 4 * time.Second, VideoDuration: time.Second, ABR: NewBOLA()},
		{Ladder: Ladder400, ChunkLength: 4 * time.Second, VideoDuration: time.Minute},
		{Ladder: Ladder{5, 1}, ChunkLength: 4 * time.Second, VideoDuration: time.Minute, ABR: NewBOLA()},
	}
	// A share outside (0, 1]: negative and NaN shares skip every grant
	// (Play would never return), larger ones over-allocate the carrier.
	for _, share := range []float64{-0.5, math.NaN(), 1.000001, 1e6, math.Inf(1), math.Inf(-1)} {
		bad = append(bad, SessionConfig{Ladder: Ladder400, ChunkLength: 4 * time.Second, VideoDuration: 8 * time.Second, ABR: NewBOLA(), Share: share})
	}
	for i, cfg := range bad {
		if _, err := Play(l, cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestPlaySessionQoE(t *testing.T) {
	l := testLink(t, "V_Sp", 42)
	res, err := Play(l, SessionConfig{
		Ladder:        Ladder400,
		ChunkLength:   4 * time.Second,
		VideoDuration: 120 * time.Second,
		ABR:           NewBOLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 30 {
		t.Fatalf("chunks = %d, want 30", len(res.Chunks))
	}
	// V_Sp averages ≈ 760 Mbps; the §6 ladder tops at 750. A healthy
	// session plays high quality with modest stalls.
	if res.AvgQuality < 3.5 {
		t.Errorf("avg quality = %.2f, suspiciously low for V_Sp", res.AvgQuality)
	}
	if res.AvgNormBitrate <= 0 || res.AvgNormBitrate > 1 {
		t.Errorf("norm bitrate = %.2f out of range", res.AvgNormBitrate)
	}
	if res.StallPct() < 0 || res.StallPct() > 60 {
		t.Errorf("stall%% = %.1f implausible", res.StallPct())
	}
	if res.PlayTime < 110*time.Second {
		t.Errorf("play time = %v, want ≈ 120 s", res.PlayTime)
	}
	if len(res.BufferTrace) == 0 || len(res.ThroughputTrace) == 0 {
		t.Error("traces missing")
	}
	// Chunk records are causally ordered.
	for i, c := range res.Chunks {
		if c.ArriveTime < c.RequestTime {
			t.Fatalf("chunk %d arrives before request", i)
		}
		if i > 0 && c.RequestTime < res.Chunks[i-1].RequestTime {
			t.Fatalf("chunk %d requested before its predecessor", i)
		}
		if c.ThroughputMbps < 0 {
			t.Fatalf("chunk %d negative throughput", i)
		}
	}
}

func TestPlayWeakChannelDegrades(t *testing.T) {
	// A weak channel (AT&T ≈ 360 Mbps) forces lower quality than V_Sp.
	strong, err := Play(testLink(t, "V_Sp", 43), SessionConfig{
		Ladder: Ladder400, ChunkLength: 4 * time.Second,
		VideoDuration: 60 * time.Second, ABR: NewBOLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Play(testLink(t, "Att_US", 43), SessionConfig{
		Ladder: Ladder400, ChunkLength: 4 * time.Second,
		VideoDuration: 60 * time.Second, ABR: NewBOLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if weak.AvgNormBitrate >= strong.AvgNormBitrate {
		t.Errorf("weak channel bitrate %.2f should trail strong %.2f",
			weak.AvgNormBitrate, strong.AvgNormBitrate)
	}
}

func TestPlayBufferCapRespected(t *testing.T) {
	l := testLink(t, "V_It", 44)
	res, err := Play(l, SessionConfig{
		Ladder: Ladder400, ChunkLength: time.Second,
		VideoDuration: 40 * time.Second, ABR: NewBOLA(), MaxBufferSec: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.BufferTrace {
		if p[1] > 10.5 {
			t.Fatalf("buffer %.1f exceeds 10 s cap", p[1])
		}
	}
}

func TestStallAccounting(t *testing.T) {
	l := testLink(t, "O_Sp100", 45)
	res, err := Play(l, SessionConfig{
		Ladder: Ladder400, ChunkLength: 4 * time.Second,
		VideoDuration: 60 * time.Second, ABR: NewBOLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, s := range res.Stalls {
		if s.Duration <= 0 {
			t.Fatal("stall with non-positive duration")
		}
		total += s.Duration
	}
	if total != res.StallTime {
		t.Errorf("stall events sum %v ≠ StallTime %v", total, res.StallTime)
	}
}

func TestPlayTimeEqualsMediaDuration(t *testing.T) {
	// Property: every second of media is eventually played — PlayTime
	// equals the video duration regardless of stalls.
	l := testLink(t, "O_Sp100", 46)
	const media = 48 * time.Second
	res, err := Play(l, SessionConfig{
		Ladder: Ladder400, ChunkLength: 4 * time.Second,
		VideoDuration: media, ABR: NewBOLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := res.PlayTime - media
	if diff < -time.Second || diff > time.Second {
		t.Errorf("play time %v should equal media duration %v", res.PlayTime, media)
	}
}

func TestSwitchCounting(t *testing.T) {
	l := testLink(t, "V_Sp", 47)
	res, err := Play(l, SessionConfig{
		Ladder: Ladder400, ChunkLength: time.Second,
		VideoDuration: 30 * time.Second, ABR: NewBOLA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := 0
	for i := 1; i < len(res.Chunks); i++ {
		if res.Chunks[i].Quality != res.Chunks[i-1].Quality {
			manual++
		}
	}
	if manual != res.Switches {
		t.Errorf("Switches = %d, recount = %d", res.Switches, manual)
	}
}
