package channel

import (
	"math"
	"math/rand"
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

// batchMixConfigs derives a batch of 1–8 lanes from fuzz input. Every
// lane shares one 1–4 site deployment and takes five bits of mix:
// degradation episodes, a moving route, mmWave blockage, fault blackouts
// and slow drift. Lanes with none of the middle three stay stationary and
// fault-free, so they ride the SoA fast lane; the rest fall back.
func batchMixConfigs(seed int64, nLanes, nSites uint8, mix uint64) []Config {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Point, 1+int(nSites)%4)
	for i := range sites {
		sites[i] = Point{X: rng.Float64()*1200 - 600, Y: rng.Float64()*1200 - 600}
	}
	cfgs := make([]Config, 1+int(nLanes)%8)
	for i := range cfgs {
		bits := mix >> (5 * i)
		cfg := batchTestConfig(seed + int64(i))
		cfg.Deployment.Sites = sites
		p := Point{X: rng.Float64()*800 - 400, Y: rng.Float64()*800 - 400}
		cfg.Route = Stationary(p)
		if bits&1 != 0 {
			cfg.Episodes = &EpisodeConfig{
				RatePerSec:  1 + rng.Float64()*4,
				MeanSeconds: 0.1 + rng.Float64()/2,
				MinDepthDB:  2,
				MaxDepthDB:  2 + rng.Float64()*10,
			}
		}
		if bits&2 != 0 {
			speed := MobilityWalking
			if rng.Intn(2) == 1 {
				speed = MobilityDriving
			}
			cfg.Route = Route{Waypoints: []Point{p, {X: p.X + 150, Y: p.Y - 60}}, SpeedMPS: speed}
		}
		if bits&4 != 0 {
			cfg.CarrierFreqMHz = 28000
			cfg.Blockage = &DefaultBlockage
		}
		if bits&8 != 0 {
			cfg.Fault = &fault.Blackout{ProbPerSlot: 0.002, DurationSlots: 20 + rng.Intn(100), DepthDB: 60, Seed: seed ^ int64(i)}
		}
		if bits&16 != 0 {
			cfg.SlowSigmaDB = 1.5
			cfg.SlowCorrSeconds = 5
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// FuzzBatchMixedLanes checks Batch against per-channel Channel.Step over
// generated mixes of stationary, episode, moving, blockage and blackout
// lanes: every lane's SINR bits and outage flag must match the scalar
// channel draw for draw, across a mid-run neighbor-load retune, and the
// batch must put exactly the stationary fault-free lanes on its fast lane.
func FuzzBatchMixedLanes(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint64(0x1f_0f_07_03_01), uint8(73))
	f.Add(int64(7), uint8(7), uint8(3), uint64(0x2a5_a5a5_a5a5), uint8(0))
	f.Add(int64(-5), uint8(0), uint8(2), uint64(0x11), uint8(200))
	f.Add(int64(2024), uint8(5), uint8(0), ^uint64(0), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nLanes, nSites uint8, mix uint64, load uint8) {
		cfgs := batchMixConfigs(seed, nLanes, nSites, mix)
		scalars := make([]*Channel, len(cfgs))
		adopted := make([]*Channel, len(cfgs))
		fast := 0
		for i, cfg := range cfgs {
			scalars[i], adopted[i] = mustPair(t, cfg)
			if cfg.Route.SpeedMPS == 0 && cfg.Blockage == nil && cfg.Fault == nil {
				fast++
			}
		}
		b, err := NewBatch(adopted)
		if err != nil {
			t.Fatal(err)
		}
		if b.FastLanes() != fast {
			t.Fatalf("fast lanes %d, want %d", b.FastLanes(), fast)
		}
		sinr := make([]float64, b.Len())
		outage := make([]bool, b.Len())
		for slot := 0; slot < 4000; slot++ {
			if slot == 1500 {
				retune := float64(load) / 100
				for _, s := range scalars {
					s.SetNeighborLoad(retune)
				}
				b.SetNeighborLoad(retune)
			}
			b.StepInto(sinr, outage)
			for i, s := range scalars {
				want := s.Step()
				if math.Float64bits(want.SINRdB) != math.Float64bits(sinr[i]) || want.Outage != outage[i] {
					t.Fatalf("slot %d lane %d: batch (SINR bits %x, outage %v), scalar (%x, %v)",
						slot, i, math.Float64bits(sinr[i]), outage[i], math.Float64bits(want.SINRdB), want.Outage)
				}
			}
		}
	})
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
