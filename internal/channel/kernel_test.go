package channel

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// referenceChannel is the straightforward per-slot implementation the
// precomputed kernel replaced: every slot recomputes the AR(1)
// coefficients, the dB→mW constants and the full site scan from scratch.
// It replicates the pre-optimization Step expression for expression,
// converting RSRQ eagerly every slot; the production Channel must match it
// bit for bit. It draws from math/rand, so the comparison also pins the
// production generator (internal/simrand) to math/rand's streams.
type referenceChannel struct {
	cfg      Config
	rng      *rand.Rand
	slot     int64
	shadowDB float64
	fastDB   float64
	slowDB   float64
	blk      *refBlockage
	epi      *refEpisodes
}

func newReferenceChannel(t *testing.T, cfg Config) *referenceChannel {
	t.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("reference config: %v", err)
	}
	ch := &referenceChannel{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	ch.shadowDB = ch.rng.NormFloat64() * cfg.ShadowSigmaDB
	ch.fastDB = ch.rng.NormFloat64() * cfg.FastSigmaDB
	if cfg.Blockage != nil {
		ch.blk = &refBlockage{cfg: *cfg.Blockage, rng: ch.rng}
	}
	if cfg.Episodes != nil {
		ch.epi = &refEpisodes{cfg: *cfg.Episodes, rng: ch.rng}
	}
	return ch
}

// refBlockage is blockageState, stepped from the reference's math/rand
// stream.
type refBlockage struct {
	cfg   BlockageConfig
	rng   *rand.Rand
	state blockState
}

func (b *refBlockage) step(dt, speed float64) (los, outage bool, lossDB float64) {
	mob := 1 + b.cfg.SpeedFactor*speed
	switch b.state {
	case stateLOS:
		if b.rng.Float64() < b.cfg.BlockRatePerSec*mob*dt {
			b.state = stateNLOS
		}
	case stateNLOS:
		switch r := b.rng.Float64(); {
		case r < b.cfg.RecoverRatePerSec*dt:
			b.state = stateLOS
		case r < (b.cfg.RecoverRatePerSec+b.cfg.OutageRatePerSec*mob)*dt:
			b.state = stateOutage
		}
	case stateOutage:
		if b.rng.Float64() < b.cfg.OutageRecoverPerSec*dt {
			b.state = stateLOS
		}
	}
	switch b.state {
	case stateNLOS:
		return false, false, b.cfg.NLOSLossDB
	case stateOutage:
		return false, true, 0
	default:
		return true, false, 0
	}
}

// refEpisodes is episodeState, stepped from the reference's math/rand
// stream.
type refEpisodes struct {
	cfg                      EpisodeConfig
	rng                      *rand.Rand
	remaining, depthDB, ramp float64
}

func (e *refEpisodes) step(dt float64) float64 {
	if e.remaining <= 0 {
		if e.rng.Float64() < e.cfg.RatePerSec*dt {
			e.remaining = e.rng.ExpFloat64() * e.cfg.MeanSeconds
			e.depthDB = e.cfg.MinDepthDB + e.rng.Float64()*(e.cfg.MaxDepthDB-e.cfg.MinDepthDB)
		}
	} else {
		e.remaining -= dt
	}
	target := 0.0
	if e.remaining > 0 {
		target = e.depthDB
	}
	const rampPerSec = 1.0
	if e.ramp < target {
		e.ramp += rampPerSec * dt * e.depthDB
		if e.ramp > target {
			e.ramp = target
		}
	} else if e.ramp > target {
		d := e.depthDB
		if d == 0 {
			d = 1
		}
		e.ramp -= rampPerSec * dt * d
		if e.ramp < target {
			e.ramp = target
		}
	}
	return e.ramp
}

// step returns the slot's sample together with its RSRQ, converted with
// the independent referenceRSRQ.
func (c *referenceChannel) step() (Sample, float64) {
	dt := c.cfg.SlotDuration.Seconds()
	tSec := float64(c.slot) * dt
	pos := routePosition(c.cfg.Route, tSec)
	speed := c.cfg.Route.SpeedMPS

	shadowRate := speed/c.cfg.ShadowCorrMeters + 1/c.cfg.ShadowCorrSeconds
	rho := math.Exp(-dt * shadowRate)
	c.shadowDB = rho*c.shadowDB + math.Sqrt(1-rho*rho)*c.rng.NormFloat64()*c.cfg.ShadowSigmaDB

	coh := c.cfg.FastCorrSeconds
	if speed > 0 {
		doppler := speed * c.cfg.CarrierFreqMHz * 1e6 / 3e8
		if tc := 0.423 / doppler; tc < coh {
			coh = tc
		}
	}
	rhoF := math.Exp(-dt / coh)
	c.fastDB = rhoF*c.fastDB + math.Sqrt(1-rhoF*rhoF)*c.rng.NormFloat64()*c.cfg.FastSigmaDB

	if c.cfg.SlowSigmaDB > 0 {
		rhoS := math.Exp(-dt / c.cfg.SlowCorrSeconds)
		c.slowDB = rhoS*c.slowDB + math.Sqrt(1-rhoS*rhoS)*c.rng.NormFloat64()*c.cfg.SlowSigmaDB
	}

	cell, rsrp, interfMW := referenceStrongestSite(c.cfg.Deployment, pos, c.cfg.CarrierFreqMHz)
	rsrp += c.shadowDB

	los, outage := true, false
	blockLossDB := 0.0
	if c.blk != nil {
		los, outage, blockLossDB = c.blk.step(dt, speed)
	}
	if c.epi != nil {
		blockLossDB += c.epi.step(dt)
	}

	noiseMW := math.Pow(10, c.cfg.NoisePerREdBm/10)
	floorMW := math.Pow(10, c.cfg.OtherCellInterferenceDBm/10)
	interfData := interfMW*c.cfg.NeighborLoad + floorMW
	sinrDB := rsrp - blockLossDB + c.fastDB + c.slowDB + c.cfg.SINRBiasDB -
		10*math.Log10(noiseMW+interfData)
	interfRSRQ := interfMW*rsrqLoad + floorMW
	sinrRSRQ := rsrp - blockLossDB + c.slowDB + c.cfg.SINRBiasDB -
		10*math.Log10(noiseMW+interfRSRQ)
	if outage {
		sinrDB = math.Inf(-1)
		sinrRSRQ = math.Inf(-1)
	}

	c.slot++
	return Sample{
		Pos:         pos,
		ServingCell: cell,
		RSRPdBm:     rsrp - blockLossDB,
		rsrqSINRdB:  sinrRSRQ,
		SINRdB:      sinrDB,
		LOS:         los,
		Outage:      outage,
	}, referenceRSRQ(sinrRSRQ)
}

// referenceRSRQ is RSRQFromSINR with math.Pow for the dB→linear step, so
// referenceChannel checks the production kernel's RSRQ independently.
func referenceRSRQ(sinrDB float64) float64 {
	if math.IsInf(sinrDB, -1) {
		return -20
	}
	rsrq := -10.79 - 10*math.Log10(1+1/math.Pow(10, sinrDB/10))
	return math.Max(-20, math.Min(-3, rsrq))
}

// kernelTrajectories covers all the specialized paths of the optimized
// Step: static geometry, Doppler-shortened coherence, multi-segment route
// ping-pong, slow drift, episodes and the blockage chain.
func kernelTrajectories() map[string]Config {
	deploy := Deployment{
		Sites:           []Point{{0, 0}, {900, 200}, {-400, 800}},
		TxPowerDBmPerRE: 18,
	}
	return map[string]Config{
		"stationary": {
			CarrierFreqMHz: 3500,
			Seed:           11,
			Route:          Stationary(Point{X: 240, Y: -60}),
			Deployment:     deploy,
			SlowSigmaDB:    1.5,
		},
		"stationary-episodes": {
			CarrierFreqMHz: 3700,
			Seed:           23,
			Route:          Stationary(Point{X: 510}),
			Deployment:     deploy,
			SlowSigmaDB:    2,
			Episodes: &EpisodeConfig{
				RatePerSec:  1.0 / 20,
				MeanSeconds: 5,
				MinDepthDB:  3,
				MaxDepthDB:  9,
			},
		},
		"walking": {
			CarrierFreqMHz: 3500,
			Seed:           37,
			Route: Route{
				Waypoints: []Point{{0, 0}, {150, 40}, {150, 300}, {-80, 420}},
				SpeedMPS:  MobilityWalking,
			},
			Deployment: deploy,
		},
		"driving-blockage": {
			CarrierFreqMHz: 28000,
			Seed:           41,
			Route: Route{
				Waypoints: []Point{{-500, 0}, {500, 0}},
				SpeedMPS:  MobilityDriving,
			},
			Deployment:  deploy,
			SlowSigmaDB: 1,
			Blockage:    &DefaultBlockage,
			Episodes: &EpisodeConfig{
				RatePerSec:  1.0 / 40,
				MeanSeconds: 8,
				MinDepthDB:  2,
				MaxDepthDB:  6,
			},
		},
	}
}

// TestKernelBitIdentity locks the precomputed slot path to the reference
// implementation: every float64 of every sample, and the RSRQ derived on
// read from it, must be identical to the last bit over long trajectories.
// This is the determinism contract for the performance work —
// precomputation and deferral must change cost, never output.
func TestKernelBitIdentity(t *testing.T) {
	const slots = 200_000 // 100 simulated seconds at 0.5 ms slots
	for name, cfg := range kernelTrajectories() {
		t.Run(name, func(t *testing.T) {
			opt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newReferenceChannel(t, cfg)
			outages := 0
			for i := 0; i < slots; i++ {
				so := opt.Step()
				sr, rsrq := ref.step()
				if !samplesBitIdentical(so, sr) {
					t.Fatalf("slot %d: optimized %+v != reference %+v", i, so, sr)
				}
				if got := so.RSRQdB(); math.Float64bits(got) != math.Float64bits(rsrq) {
					t.Fatalf("slot %d: RSRQdB() %v != reference %v", i, got, rsrq)
				}
				if so.Outage {
					outages++
				}
			}
			if cfg.Blockage != nil && outages == 0 {
				t.Fatal("no outage slot: the run does not exercise RSRQ in outage")
			}
		})
	}
}

// TestRSRQReadLeavesTrajectory pins RSRQ-on-read as free of side effects:
// reading RSRQdB() any number of times at arbitrary slots returns the same
// value each time and leaves every later sample bit-identical to a channel
// whose RSRQ is never read.
func TestRSRQReadLeavesTrajectory(t *testing.T) {
	const slots = 20_000
	for name, cfg := range kernelTrajectories() {
		t.Run(name, func(t *testing.T) {
			read, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			unread, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pick := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < slots; i++ {
				sr, su := read.Step(), unread.Step()
				if !samplesBitIdentical(sr, su) {
					t.Fatalf("slot %d: sample after RSRQ reads %+v != unread %+v", i, sr, su)
				}
				first := sr.RSRQdB()
				for k := pick.Intn(4); k > 0; k-- {
					if again := sr.RSRQdB(); math.Float64bits(again) != math.Float64bits(first) {
						t.Fatalf("slot %d: repeated RSRQdB() %v != first read %v", i, again, first)
					}
				}
			}
		})
	}
}

func samplesBitIdentical(a, b Sample) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		a.ServingCell == b.ServingCell &&
		math.Float64bits(a.RSRPdBm) == math.Float64bits(b.RSRPdBm) &&
		math.Float64bits(a.rsrqSINRdB) == math.Float64bits(b.rsrqSINRdB) &&
		math.Float64bits(a.SINRdB) == math.Float64bits(b.SINRdB) &&
		a.LOS == b.LOS &&
		a.Outage == b.Outage
}

// TestKernelMatchesInlineExpressions pins the precomputed coefficients to
// the exact inline expressions they replaced.
func TestKernelMatchesInlineExpressions(t *testing.T) {
	cfg := Config{
		CarrierFreqMHz: 3500,
		Seed:           5,
		Route: Route{
			Waypoints: []Point{{0, 0}, {1000, 0}},
			SpeedMPS:  MobilityDriving,
		},
		Deployment:  Deployment{Sites: []Point{{0, 0}}, TxPowerDBmPerRE: 18},
		SlowSigmaDB: 1.5,
	}
	cfg = cfg.withDefaults()
	dt := cfg.SlotDuration.Seconds()
	speed := cfg.Route.SpeedMPS
	k := computeKernel(cfg, dt, speed)

	shadowRate := speed/cfg.ShadowCorrMeters + 1/cfg.ShadowCorrSeconds
	rho := math.Exp(-dt * shadowRate)
	if math.Float64bits(k.shadowRho) != math.Float64bits(rho) ||
		math.Float64bits(k.shadowSq) != math.Float64bits(math.Sqrt(1-rho*rho)) {
		t.Errorf("shadow kernel (%v,%v) != inline (%v,%v)", k.shadowRho, k.shadowSq, rho, math.Sqrt(1-rho*rho))
	}
	coh := cfg.FastCorrSeconds
	doppler := speed * cfg.CarrierFreqMHz * 1e6 / 3e8
	if tc := 0.423 / doppler; tc < coh {
		coh = tc
	}
	rhoF := math.Exp(-dt / coh)
	if math.Float64bits(k.fastRho) != math.Float64bits(rhoF) ||
		math.Float64bits(k.fastSq) != math.Float64bits(math.Sqrt(1-rhoF*rhoF)) {
		t.Errorf("fast kernel (%v,%v) != inline (%v,%v)", k.fastRho, k.fastSq, rhoF, math.Sqrt(1-rhoF*rhoF))
	}
	rhoS := math.Exp(-dt / cfg.SlowCorrSeconds)
	if math.Float64bits(k.slowRho) != math.Float64bits(rhoS) ||
		math.Float64bits(k.slowSq) != math.Float64bits(math.Sqrt(1-rhoS*rhoS)) {
		t.Errorf("slow kernel (%v,%v) != inline (%v,%v)", k.slowRho, k.slowSq, rhoS, math.Sqrt(1-rhoS*rhoS))
	}
}

// TestPositionMatchesRoutePosition locks the segment-cached position
// walker to the reference routePosition over a dense time sweep.
func TestPositionMatchesRoutePosition(t *testing.T) {
	cfg := Config{
		CarrierFreqMHz: 3500,
		Seed:           7,
		Route: Route{
			Waypoints: []Point{{0, 0}, {100, 0}, {100, 100}, {-50, 130}},
			SpeedMPS:  3.3,
		},
		Deployment: Deployment{Sites: []Point{{0, 0}}, TxPowerDBmPerRE: 18},
	}
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500_000; i++ {
		tSec := float64(i) * 0.0005
		got, want := ch.position(tSec), routePosition(ch.cfg.Route, tSec)
		if math.Float64bits(got.X) != math.Float64bits(want.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			t.Fatalf("t=%gs: position %+v != routePosition %+v", tSec, got, want)
		}
	}
}

// TestDisableNeighborLoad covers the withDefaults zero-value fix: the
// zero value still defaults to 0.1, an explicit value is kept, and
// DisableNeighborLoad makes "no neighbor activity" expressible.
func TestDisableNeighborLoad(t *testing.T) {
	base := Config{
		CarrierFreqMHz: 3500,
		SlotDuration:   500 * time.Microsecond,
		Route:          Stationary(Point{X: 100}),
		Deployment:     Deployment{Sites: []Point{{0, 0}, {300, 0}}, TxPowerDBmPerRE: 18},
	}

	if got := base.withDefaults().NeighborLoad; got != 0.1 {
		t.Errorf("zero NeighborLoad: got %g, want default 0.1", got)
	}
	explicit := base
	explicit.NeighborLoad = 0.3
	if got := explicit.withDefaults().NeighborLoad; got != 0.3 {
		t.Errorf("explicit NeighborLoad: got %g, want 0.3", got)
	}
	disabled := base
	disabled.DisableNeighborLoad = true
	disabled.NeighborLoad = 0.7 // ignored when disabled
	if got := disabled.withDefaults().NeighborLoad; got != 0 {
		t.Errorf("DisableNeighborLoad: got %g, want 0", got)
	}

	negative := base
	negative.NeighborLoad = -0.1
	if err := negative.withDefaults().Validate(); err == nil {
		t.Error("negative NeighborLoad: want validation error, got nil")
	}

	// Disabling neighbor interference must raise SINR: same seed, same
	// geometry, strictly less interference on every slot.
	on, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	offCfg := base
	offCfg.DisableNeighborLoad = true
	off, err := New(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		son, soff := on.Step(), off.Step()
		if soff.SINRdB <= son.SINRdB {
			t.Fatalf("slot %d: disabled-neighbor SINR %.3f not above loaded SINR %.3f", i, soff.SINRdB, son.SINRdB)
		}
	}
}
