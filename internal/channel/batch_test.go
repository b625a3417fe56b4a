package channel

import (
	"math"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/fault"
)

func batchTestConfig(seed int64) Config {
	return Config{
		CarrierFreqMHz:           3500,
		SlotDuration:             500 * time.Microsecond,
		Seed:                     seed,
		Route:                    Stationary(Point{X: 300, Y: 120}),
		Deployment:               Deployment{Sites: []Point{{}, {X: 900}}, TxPowerDBmPerRE: 18},
		OtherCellInterferenceDBm: -100,
		ShadowSigmaDB:            3,
		FastSigmaDB:              1.5,
		SINRBiasDB:               2,
	}
}

// mustPair builds two channels from the same config — one to step through
// the batch, one as the scalar reference sharing the identical RNG seed.
func mustPair(t *testing.T, cfg Config) (*Channel, *Channel) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestBatchLockstepScalar is the bit-identity contract of the SoA fast
// lane: 100k slots of batch stepping must reproduce the scalar Step's
// SINR samples to the exact bit, across slow-drift on/off, degradation
// episodes and a mid-session neighbor-load retune. Episode lanes ride
// the fast lane too; their rate is high enough that episodes open, ramp
// and close several times inside the run.
func TestBatchLockstepScalar(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"slow-drift", func(c *Config) { c.SlowSigmaDB = 1.5; c.SlowCorrSeconds = 5 }},
		{"no-neighbor-load", func(c *Config) { c.DisableNeighborLoad = true }},
		{"episodes", func(c *Config) { c.Episodes = lockstepEpisodes() }},
		{"episodes+slow-drift", func(c *Config) {
			c.Episodes = lockstepEpisodes()
			c.SlowSigmaDB = 1.5
			c.SlowCorrSeconds = 5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var scalars []*Channel
			var adopted []*Channel
			for i := 0; i < 3; i++ {
				cfg := batchTestConfig(1000 + int64(i))
				cfg.Route = Stationary(Point{X: 100 + 200*float64(i)})
				tc.mut(&cfg)
				s, a := mustPair(t, cfg)
				scalars = append(scalars, s)
				adopted = append(adopted, a)
			}
			b, err := NewBatch(adopted)
			if err != nil {
				t.Fatal(err)
			}
			if b.FastLanes() != len(adopted) {
				t.Fatalf("fast lanes %d, want %d (all stationary fault-free channels)", b.FastLanes(), len(adopted))
			}
			sinr := make([]float64, b.Len())
			outage := make([]bool, b.Len())
			sagging := make([]bool, len(scalars))
			closed := 0 // episodes that ramped back to zero, over all lanes
			for slot := 0; slot < 100_000; slot++ {
				if slot == 40_000 {
					// Mid-session load retune, as the contention cell's
					// load coupling performs.
					for _, s := range scalars {
						s.SetNeighborLoad(0.73)
					}
					b.SetNeighborLoad(0.73)
				}
				b.StepInto(sinr, outage)
				for i, s := range scalars {
					want := s.Step()
					if math.Float64bits(want.SINRdB) != math.Float64bits(sinr[i]) {
						t.Fatalf("slot %d lane %d: batch SINR %v (bits %x), scalar %v (bits %x)",
							slot, i, sinr[i], math.Float64bits(sinr[i]), want.SINRdB, math.Float64bits(want.SINRdB))
					}
					if want.Outage != outage[i] {
						t.Fatalf("slot %d lane %d: batch outage %v, scalar %v", slot, i, outage[i], want.Outage)
					}
					if e := s.epi; e != nil {
						if sagging[i] && e.ramp == 0 {
							closed++
						}
						sagging[i] = e.ramp > 0
					}
				}
			}
			if scalars[0].epi != nil && closed < 3 {
				t.Fatalf("only %d episodes opened and closed; the run does not exercise the episode path", closed)
			}
		})
	}
}

// lockstepEpisodes is an episode process fast enough that the lockstep
// run sees many full open–ramp–close cycles.
func lockstepEpisodes() *EpisodeConfig {
	return &EpisodeConfig{RatePerSec: 0.5, MeanSeconds: 3, MinDepthDB: 3, MaxDepthDB: 12}
}

// TestBatchFallbackLanes pins the fallback contract: channels whose slot
// path cannot be hoisted — mobile routes, fault blackouts — still advance
// bit-identically (they delegate to Channel.Step), and mixed batches keep
// every lane exact.
func TestBatchFallbackLanes(t *testing.T) {
	mobile := batchTestConfig(7)
	mobile.Route = Route{Waypoints: []Point{{X: 50}, {X: 1200}}, SpeedMPS: 1.4}

	blackout := batchTestConfig(8)
	blackout.Fault = &fault.Blackout{ProbPerSlot: 0.001, DurationSlots: 40, DepthDB: 60, Seed: 99}

	fastCfg := batchTestConfig(9)

	var scalars, adopted []*Channel
	for _, cfg := range []Config{mobile, blackout, fastCfg} {
		s, a := mustPair(t, cfg)
		scalars = append(scalars, s)
		adopted = append(adopted, a)
	}
	b, err := NewBatch(adopted)
	if err != nil {
		t.Fatal(err)
	}
	if b.FastLanes() != 1 {
		t.Fatalf("fast lanes %d, want 1 (mobile and blackout lanes must fall back)", b.FastLanes())
	}
	sinr := make([]float64, b.Len())
	outage := make([]bool, b.Len())
	for slot := 0; slot < 50_000; slot++ {
		b.StepInto(sinr, outage)
		for i, s := range scalars {
			want := s.Step()
			if math.Float64bits(want.SINRdB) != math.Float64bits(sinr[i]) {
				t.Fatalf("slot %d lane %d: batch SINR bits %x, scalar bits %x",
					slot, i, math.Float64bits(sinr[i]), math.Float64bits(want.SINRdB))
			}
			if want.Outage != outage[i] {
				t.Fatalf("slot %d lane %d: batch outage %v, scalar %v", slot, i, outage[i], want.Outage)
			}
		}
	}
}

// TestBatchStepAllocs pins the SoA loop at zero allocations per slot.
func TestBatchStepAllocs(t *testing.T) {
	var chs []*Channel
	for i := 0; i < 16; i++ {
		cfg := batchTestConfig(int64(100 + i))
		ch, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, ch)
	}
	b, err := NewBatch(chs)
	if err != nil {
		t.Fatal(err)
	}
	sinr := make([]float64, b.Len())
	outage := make([]bool, b.Len())
	for i := 0; i < 1000; i++ {
		b.StepInto(sinr, outage)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		b.StepInto(sinr, outage)
	})
	if allocs > 0 {
		t.Errorf("Batch.StepInto allocates %.3f objects/slot, want 0", allocs)
	}
}
